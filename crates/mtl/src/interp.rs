use crate::ast::{Expr, LValue, MtlProgram, Statement};
use crate::cache::TranslationCache;
use crate::error::MtlLangError;
use crate::Result;
use starlink_message::{get_value_path, set_value_path, AbstractMessage, Field, History, Value};
use std::collections::HashMap;

/// The environment an MTL program executes in.
///
/// References resolve in this order:
///
/// 1. **local variables** introduced by `let` / `foreach`,
/// 2. **output slots** — messages being composed, keyed by the merged
///    state at which they will be sent (the paper's `S22.Msg`),
/// 3. **history states** — messages previously sent/received, keyed by
///    the state where the automata engine recorded them (`S21.Msg`).
pub struct MtlContext<'a> {
    history: &'a History,
    cache: &'a mut TranslationCache,
    outputs: HashMap<String, AbstractMessage>,
    locals: HashMap<String, Value>,
    host_override: Option<String>,
}

impl<'a> MtlContext<'a> {
    /// Creates a context over a history and a (session-scoped) cache.
    pub fn new(history: &'a History, cache: &'a mut TranslationCache) -> MtlContext<'a> {
        MtlContext {
            history,
            cache,
            outputs: HashMap::new(),
            locals: HashMap::new(),
            host_override: None,
        }
    }

    /// Registers a message under composition at the given state slot.
    pub fn add_output(&mut self, state: impl Into<String>, message: AbstractMessage) {
        self.outputs.insert(state.into(), message);
    }

    /// The composed message at a slot, if any.
    pub fn output(&self, state: &str) -> Option<&AbstractMessage> {
        self.outputs.get(state)
    }

    /// Removes and returns a composed message.
    pub fn take_output(&mut self, state: &str) -> Option<AbstractMessage> {
        self.outputs.remove(state)
    }

    /// Endpoint rebinding requested via `sethost(...)`, if any.
    pub fn host_override(&self) -> Option<&str> {
        self.host_override.as_deref()
    }

    /// Read access to the translation cache.
    pub fn cache(&self) -> &TranslationCache {
        self.cache
    }

    fn resolve_ref(&self, slot: &str, path: Option<&starlink_message::FieldPath>) -> Result<Value> {
        if let Some(local) = self.locals.get(slot) {
            return match path {
                None => Ok(local.clone()),
                Some(p) => {
                    get_value_path(local, p)
                        .cloned()
                        .map_err(|e| MtlLangError::PathResolution {
                            reference: format!("{slot}.{p}"),
                            cause: e.to_string(),
                        })
                }
            };
        }
        if let Some(msg) = self.outputs.get(slot) {
            return match path {
                None => Ok(Value::Struct(msg.fields().to_vec())),
                Some(p) => msg
                    .get_path(p)
                    .cloned()
                    .map_err(|e| MtlLangError::PathResolution {
                        reference: format!("{slot}.{p}"),
                        cause: e.to_string(),
                    }),
            };
        }
        if let Some(entry) = self.history.at_state(slot) {
            return match path {
                None => Ok(Value::Struct(entry.message.fields().to_vec())),
                Some(p) => {
                    entry
                        .message
                        .get_path(p)
                        .cloned()
                        .map_err(|e| MtlLangError::PathResolution {
                            reference: format!("{slot}.{p}"),
                            cause: e.to_string(),
                        })
                }
            };
        }
        Err(MtlLangError::UnknownReference {
            name: slot.to_owned(),
        })
    }

    /// Pushes onto the array at `target`, creating it when absent —
    /// in place, so Fig. 9-style `foreach`+`append` loops stay linear.
    fn append(&mut self, target: &LValue, element: Value) -> Result<()> {
        if let Some(slot_value) = self.resolve_mut(target) {
            if slot_value.is_null() {
                *slot_value = Value::Array(vec![element]);
                return Ok(());
            }
            return match slot_value {
                Value::Array(items) => {
                    items.push(element);
                    Ok(())
                }
                other => Err(MtlLangError::BadAssignment {
                    target: target.to_string(),
                    message: format!("append target is {}, not an array", other.kind()),
                }),
            };
        }
        // Target does not exist yet: create a fresh one-element array.
        self.assign(target, Value::Array(vec![element]))
    }

    /// Mutable resolution of an lvalue, when it already exists.
    fn resolve_mut(&mut self, target: &LValue) -> Option<&mut Value> {
        if self.locals.contains_key(&target.slot) {
            let local = self.locals.get_mut(&target.slot)?;
            return match &target.path {
                None => Some(local),
                Some(p) => starlink_message::get_value_path_mut(local, p).ok(),
            };
        }
        if self.outputs.contains_key(&target.slot) {
            let msg = self.outputs.get_mut(&target.slot)?;
            return match &target.path {
                None => None,
                Some(p) => msg.get_path_mut(p).ok(),
            };
        }
        None
    }

    fn assign(&mut self, target: &LValue, value: Value) -> Result<()> {
        if let Some(local) = self.locals.get_mut(&target.slot) {
            return match &target.path {
                None => {
                    *local = value;
                    Ok(())
                }
                Some(p) => {
                    set_value_path(local, p, value).map_err(|e| MtlLangError::BadAssignment {
                        target: target.to_string(),
                        message: e.to_string(),
                    })
                }
            };
        }
        if let Some(msg) = self.outputs.get_mut(&target.slot) {
            return match &target.path {
                None => Err(MtlLangError::BadAssignment {
                    target: target.to_string(),
                    message: "cannot replace a whole output message; assign fields".into(),
                }),
                Some(p) => msg
                    .set_path(p, value)
                    .map_err(|e| MtlLangError::BadAssignment {
                        target: target.to_string(),
                        message: e.to_string(),
                    }),
            };
        }
        Err(MtlLangError::BadAssignment {
            target: target.to_string(),
            message: "target is neither a local nor an output slot".into(),
        })
    }
}

impl MtlProgram {
    /// Executes the program in the given context.
    ///
    /// # Errors
    ///
    /// Any [`MtlLangError`] raised by reference resolution, assignment, or
    /// builtin evaluation. Execution is not transactional: earlier
    /// statements' effects remain on error (callers treat the mediation
    /// exchange as failed).
    pub fn execute(&self, ctx: &mut MtlContext<'_>) -> Result<()> {
        for statement in &self.statements {
            exec_statement(statement, ctx)?;
        }
        Ok(())
    }
}

fn exec_statement(statement: &Statement, ctx: &mut MtlContext<'_>) -> Result<()> {
    match statement {
        Statement::Assign { target, value } => {
            let v = eval(value, ctx)?;
            ctx.assign(target, v)
        }
        Statement::Let { name, value } => {
            let v = eval(value, ctx)?;
            ctx.locals.insert(name.clone(), v);
            Ok(())
        }
        Statement::Cache { key, value } => {
            let k = eval(key, ctx)?.to_text();
            let v = eval(value, ctx)?;
            ctx.cache.put(k, v);
            Ok(())
        }
        Statement::SetHost { url } => {
            let v = eval(url, ctx)?.to_text();
            ctx.host_override = Some(v);
            Ok(())
        }
        Statement::Append { target, value } => {
            let element = eval(value, ctx)?;
            ctx.append(target, element)
        }
        Statement::ForEach {
            var,
            iterable,
            body,
        } => {
            let items = match eval(iterable, ctx)? {
                Value::Array(items) => items,
                other => {
                    return Err(MtlLangError::NotIterable {
                        found: other.kind().to_owned(),
                    })
                }
            };
            let saved = ctx.locals.get(var).cloned();
            for item in items {
                ctx.locals.insert(var.clone(), item);
                for s in body {
                    exec_statement(s, ctx)?;
                }
            }
            match saved {
                Some(v) => {
                    ctx.locals.insert(var.clone(), v);
                }
                None => {
                    ctx.locals.remove(var);
                }
            }
            Ok(())
        }
    }
}

fn eval(expr: &Expr, ctx: &mut MtlContext<'_>) -> Result<Value> {
    match expr {
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Int(i) => Ok(Value::Int(*i)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Null => Ok(Value::Null),
        Expr::Ref { slot, path } => ctx.resolve_ref(slot, path.as_ref()),
        Expr::Call { name, args } => eval_call(name, args, ctx),
    }
}

fn arity(function: &str, args: &[Expr], n: usize) -> Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(MtlLangError::BadArguments {
            function: function.to_owned(),
            message: format!("expected {n} argument(s), got {}", args.len()),
        })
    }
}

fn eval_call(name: &str, args: &[Expr], ctx: &mut MtlContext<'_>) -> Result<Value> {
    match name {
        "concat" => {
            let mut out = String::new();
            for a in args {
                out.push_str(&eval(a, ctx)?.to_text());
            }
            Ok(Value::Str(out))
        }
        "tostring" => {
            arity(name, args, 1)?;
            Ok(Value::Str(eval(&args[0], ctx)?.to_text()))
        }
        "toint" => {
            arity(name, args, 1)?;
            let v = eval(&args[0], ctx)?;
            if let Some(i) = v.as_int() {
                return Ok(Value::Int(i));
            }
            v.to_text()
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| MtlLangError::BadArguments {
                    function: "toint".into(),
                    message: format!("`{}` is not an integer", v.to_text()),
                })
        }
        "getcache" => {
            arity(name, args, 1)?;
            let key = eval(&args[0], ctx)?.to_text();
            ctx.cache
                .get(&key)
                .cloned()
                .ok_or(MtlLangError::CacheMiss { key })
        }
        "newstruct" => {
            arity(name, args, 0)?;
            Ok(Value::Struct(Vec::new()))
        }
        "newarray" => {
            arity(name, args, 0)?;
            Ok(Value::Array(Vec::new()))
        }
        "genid" => {
            arity(name, args, 0)?;
            Ok(Value::Str(ctx.cache.generate_id()))
        }
        "count" => {
            arity(name, args, 1)?;
            match eval(&args[0], ctx)? {
                Value::Array(items) => Ok(Value::Int(items.len() as i64)),
                Value::Struct(fields) => Ok(Value::Int(fields.len() as i64)),
                other => Err(MtlLangError::BadArguments {
                    function: "count".into(),
                    message: format!("expected array/struct, found {}", other.kind()),
                }),
            }
        }
        "item" => {
            arity(name, args, 2)?;
            let arr = eval(&args[0], ctx)?;
            let idx = eval(&args[1], ctx)?
                .as_int()
                .ok_or_else(|| MtlLangError::BadArguments {
                    function: "item".into(),
                    message: "index must be an integer".into(),
                })?;
            match arr {
                Value::Array(items) => {
                    items
                        .get(idx as usize)
                        .cloned()
                        .ok_or_else(|| MtlLangError::BadArguments {
                            function: "item".into(),
                            message: format!("index {idx} out of bounds ({})", items.len()),
                        })
                }
                other => Err(MtlLangError::BadArguments {
                    function: "item".into(),
                    message: format!("expected array, found {}", other.kind()),
                }),
            }
        }
        "default" => {
            arity(name, args, 2)?;
            match eval(&args[0], ctx) {
                Ok(Value::Null)
                | Err(MtlLangError::UnknownReference { .. })
                | Err(MtlLangError::PathResolution { .. })
                | Err(MtlLangError::CacheMiss { .. }) => eval(&args[1], ctx),
                other => other,
            }
        }
        "field" => {
            // field(name, value) — a labelled field for building structs
            // alongside newstruct/append.
            arity(name, args, 2)?;
            let label = eval(&args[0], ctx)?.to_text();
            let value = eval(&args[1], ctx)?;
            Ok(Value::Struct(vec![Field::new(label, value)]))
        }
        other => Err(MtlLangError::UnknownFunction {
            name: other.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_message::Direction;

    fn search_history() -> History {
        let mut h = History::new();
        let mut req = AbstractMessage::new("flickr.photos.search");
        req.set_field("text", Value::from("tree"));
        req.set_field("per_page", Value::Int(3));
        h.record("m1", Direction::Received, req);
        h
    }

    #[test]
    fn fig8_field_assignments() {
        let h = search_history();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("m2", AbstractMessage::new("picasa.photos.search"));
        MtlProgram::parse("m2.q = m1.text\nm2.max-results = m1.per_page")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        let out = ctx.output("m2").unwrap();
        assert_eq!(out.get("q").unwrap().as_str(), Some("tree"));
        assert_eq!(out.get("max-results").unwrap().as_int(), Some(3));
    }

    #[test]
    fn fig9_search_response_with_cache() {
        // Picasa reply with two entries arrives at m5; the mediator builds
        // the Flickr photo-id list at m6 and caches entries (Fig. 9).
        let mut h = History::new();
        let mut reply = AbstractMessage::new("picasa.search.reply");
        reply
            .set_path(
                &"entries[0]".parse().unwrap(),
                Value::Struct(vec![
                    Field::new("id", Value::from("gphoto-1")),
                    Field::new("title", Value::from("Tree")),
                    Field::new("url", Value::from("http://x/1.jpg")),
                ]),
            )
            .unwrap();
        reply
            .set_path(
                &"entries[1]".parse().unwrap(),
                Value::Struct(vec![
                    Field::new("id", Value::from("gphoto-2")),
                    Field::new("title", Value::from("Oak")),
                    Field::new("url", Value::from("http://x/2.jpg")),
                ]),
            )
            .unwrap();
        h.record("m5", Direction::Received, reply);

        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("m6", AbstractMessage::new("flickr.search.reply"));
        MtlProgram::parse(
            r#"
foreach e in m5.entries {
  let p = newstruct()
  p.id = genid()
  cache(p.id, e)
  append(m6.photos, p)
}
"#,
        )
        .unwrap()
        .execute(&mut ctx)
        .unwrap();

        let out = ctx.output("m6").unwrap();
        let photos = out.get("photos").unwrap().as_array().unwrap();
        assert_eq!(photos.len(), 2);
        let first_id = get_value_path(&photos[0], &"id".parse().unwrap())
            .unwrap()
            .to_text();
        assert_eq!(first_id, "1000");
        // Fig. 10: the cached Picasa entry is retrievable by the dummy id.
        let cached = ctx.cache().get("1000").unwrap();
        assert_eq!(
            get_value_path(cached, &"title".parse().unwrap())
                .unwrap()
                .as_str(),
            Some("Tree")
        );
    }

    #[test]
    fn fig10_getinfo_from_cache() {
        let mut h = History::new();
        let mut getinfo = AbstractMessage::new("flickr.photos.getInfo");
        getinfo.set_field("photo_id", Value::from("1000"));
        h.record("m8", Direction::Received, getinfo);

        let mut cache = TranslationCache::new();
        cache.put(
            "1000",
            Value::Struct(vec![
                Field::new("title", Value::from("Tree")),
                Field::new("url", Value::from("http://x/1.jpg")),
            ]),
        );
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("m9", AbstractMessage::new("flickr.photos.getInfo.reply"));
        MtlProgram::parse(
            "let entry = getcache(m8.photo_id)\nm9.photo = entry\nm9.url = entry.url",
        )
        .unwrap()
        .execute(&mut ctx)
        .unwrap();
        let out = ctx.output("m9").unwrap();
        assert_eq!(out.get("url").unwrap().as_str(), Some("http://x/1.jpg"));
        assert!(matches!(out.get("photo"), Some(Value::Struct(_))));
    }

    #[test]
    fn cache_miss_is_an_error() {
        let h = History::new();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        let err = MtlProgram::parse("o.x = getcache(\"nope\")")
            .unwrap()
            .execute(&mut ctx)
            .unwrap_err();
        assert!(matches!(err, MtlLangError::CacheMiss { .. }));
    }

    #[test]
    fn sethost_override() {
        let h = History::new();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        MtlProgram::parse("sethost(\"https://picasaweb.google.com\")")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        assert_eq!(ctx.host_override(), Some("https://picasaweb.google.com"));
    }

    #[test]
    fn builtins() {
        let h = search_history();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        MtlProgram::parse(
            r#"
o.joined = concat("q=", m1.text, "&n=", tostring(m1.per_page))
o.n = toint("42")
o.missing = default(m1.nosuch, "fallback")
"#,
        )
        .unwrap()
        .execute(&mut ctx)
        .unwrap();
        let out = ctx.output("o").unwrap();
        assert_eq!(out.get("joined").unwrap().as_str(), Some("q=tree&n=3"));
        assert_eq!(out.get("n").unwrap().as_int(), Some(42));
        assert_eq!(out.get("missing").unwrap().as_str(), Some("fallback"));
    }

    #[test]
    fn count_and_item() {
        let mut h = History::new();
        let mut m = AbstractMessage::new("m");
        m.set_field(
            "xs",
            Value::Array(vec![Value::Int(5), Value::Int(6), Value::Int(7)]),
        );
        h.record("s", Direction::Received, m);
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        MtlProgram::parse("o.n = count(s.xs)\no.second = item(s.xs, 1)")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        let out = ctx.output("o").unwrap();
        assert_eq!(out.get("n").unwrap().as_int(), Some(3));
        assert_eq!(out.get("second").unwrap().as_int(), Some(6));
    }

    #[test]
    fn unknown_reference_and_function_errors() {
        let h = History::new();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        assert!(matches!(
            MtlProgram::parse("o.x = ghost.field")
                .unwrap()
                .execute(&mut ctx),
            Err(MtlLangError::UnknownReference { .. })
        ));
        assert!(matches!(
            MtlProgram::parse("o.x = frobnicate(1)")
                .unwrap()
                .execute(&mut ctx),
            Err(MtlLangError::UnknownFunction { .. })
        ));
        assert!(matches!(
            MtlProgram::parse("ghost.x = 1").unwrap().execute(&mut ctx),
            Err(MtlLangError::BadAssignment { .. })
        ));
    }

    #[test]
    fn foreach_restores_shadowed_local() {
        let mut h = History::new();
        let mut m = AbstractMessage::new("m");
        m.set_field("xs", Value::Array(vec![Value::Int(1)]));
        h.record("s", Direction::Received, m);
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        MtlProgram::parse("let e = \"outer\"\nforeach e in s.xs { o.inner = e }\no.after = e")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        let out = ctx.output("o").unwrap();
        assert_eq!(out.get("inner").unwrap().as_int(), Some(1));
        assert_eq!(out.get("after").unwrap().as_str(), Some("outer"));
    }

    #[test]
    fn foreach_over_non_array_fails() {
        let h = search_history();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        let err = MtlProgram::parse("foreach e in m1.text { }")
            .unwrap()
            .execute(&mut ctx)
            .unwrap_err();
        assert!(matches!(err, MtlLangError::NotIterable { .. }));
    }

    #[test]
    fn whole_message_reference() {
        let h = search_history();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        MtlProgram::parse("cache(\"req\", m1)")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        let cached = ctx.cache().get("req").unwrap();
        assert_eq!(
            get_value_path(cached, &"text".parse().unwrap())
                .unwrap()
                .as_str(),
            Some("tree")
        );
    }

    #[test]
    fn append_to_missing_field_creates_array() {
        let h = History::new();
        let mut cache = TranslationCache::new();
        let mut ctx = MtlContext::new(&h, &mut cache);
        ctx.add_output("o", AbstractMessage::new("out"));
        MtlProgram::parse("append(o.xs, 1)\nappend(o.xs, 2)")
            .unwrap()
            .execute(&mut ctx)
            .unwrap();
        let out = ctx.output("o").unwrap();
        assert_eq!(
            out.get("xs").unwrap().as_array().unwrap(),
            &[Value::Int(1), Value::Int(2)]
        );
    }
}
