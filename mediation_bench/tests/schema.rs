//! `BENCHMARK.json` and `README.md` describe exactly the metrics and
//! workloads the program reports.

use mediation_bench::run::{end_to_end_schema, per_layer_schema, Better};
use mediation_bench::workload::Workload;

fn read(path: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap()
}

/// The `(name, unit, better)` entries of one metric list of
/// `BENCHMARK.json`, read without a JSON library.
fn listed(json: &str, section: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{section}\"")).unwrap();
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap()];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
        entry[at..at + entry[at..].find('"').unwrap()].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            )
        })
        .collect()
}

fn expected(schema: Vec<(String, &'static str, Better)>) -> Vec<(String, String, String)> {
    schema
        .into_iter()
        .map(|(name, unit, better)| (name, unit.to_owned(), better.as_str().to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let json = read("../BENCHMARK.json");
    assert_eq!(listed(&json, "end_to_end"), expected(end_to_end_schema()));
    assert_eq!(listed(&json, "per_layer"), expected(per_layer_schema()));
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

#[test]
fn readme_states_every_end_to_end_bound() {
    let json = read("../BENCHMARK.json");
    let readme = read("README.md");
    let section = &json[json.find("\"end_to_end\"").unwrap()..];
    let bounds = section[..section.find(']').unwrap()]
        .split("\"bound\": ")
        .skip(1)
        .map(|rest| {
            &rest[..rest
                .find(|c: char| c != '.' && !c.is_ascii_digit())
                .unwrap()]
        });
    for ((name, unit, better), bound) in listed(&json, "end_to_end").into_iter().zip(bounds) {
        let row = format!("| `{name}` | {unit} | {better} | {bound} |");
        assert!(readme.contains(&row), "README.md lacks the row `{row}`");
    }
}

#[test]
fn readme_documents_every_metric_and_workload() {
    let readme = read("README.md");
    let schemas = end_to_end_schema().into_iter().chain(per_layer_schema());
    for (name, _, _) in schemas {
        let generic = name
            .strip_prefix("threaded.")
            .or_else(|| name.strip_prefix("mux."))
            .map(|rest| rest.strip_suffix(".per_unit").unwrap_or(rest))
            .unwrap_or(&name);
        assert!(
            readme.contains(generic),
            "README.md does not mention `{generic}`"
        );
    }
    for workload in Workload::ALL {
        assert!(readme.contains(&format!("`{}`", workload.name())));
    }
}
