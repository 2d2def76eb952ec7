//! Allocation budget of a steady-state traversal: a counting global
//! allocator pins how many heap allocations one Add→Plus traversal
//! through [`SessionCore`] makes, with the no-op sink and with a
//! [`Recorder`] installed. Allocation counts barely vary between runs
//! for fixed input, so unlike timings they can gate exactly.
//!
//! Counters are thread-local, so tests running on parallel threads do
//! not see each other's allocations.

use starlink_automata::merge::{template, MergeBuilder};
use starlink_core::{
    ActionRule, ColorRuntime, Mediator, ParamRule, ProtocolBinding, Recorder, ReplyAction,
    SessionCore, SessionEvent, SessionIo, SessionPersist,
};
use starlink_mdl::{MdlCodec, MessageCodec};
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, NetworkEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Wraps [`System`], counting allocations made on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown, after the counter
    // is gone, are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per steady-state traversal with the no-op sink, measured
/// when this test was written. A change that adds an allocation to the
/// engine's steady state fails here; one that removes some should lower
/// this number.
const BUDGET: u64 = 178;

const GIOPISH_MDL: &str = "\
<Message:GIOPRequest>\n\
<Rule:MessageType=0>\n\
<MessageType:8><RequestID:32>\n\
<OperationLength:32><Operation:OperationLength>\n\
<align:64><ParameterArray:eof:valueseq>\n\
<End:Message>\n\
<Message:GIOPReply>\n\
<Rule:MessageType=1>\n\
<MessageType:8><RequestID:32>\n\
<align:64><ParameterArray:eof:valueseq>\n\
<End:Message>";

const SOAPISH_MDL: &str = "\
<Dialect:xml>\n\
<Message:SOAPRequest>\n\
<Root:soap:Envelope>\n\
<RootAttr:xmlns:soap=http://schemas.xmlsoap.org/soap/envelope/>\n\
<Name:MethodName=Body>\n\
<List:Params=Body/{MethodName}/*>\n\
<End:Message>\n\
<Message:SOAPReply>\n\
<Root:soap:ReplyEnvelope>\n\
<Name:MethodName=Body>\n\
<List:Params=Body/{MethodName}/*>\n\
<End:Message>";

fn giop_binding() -> ProtocolBinding {
    ProtocolBinding {
        name: "IIOP".into(),
        mdl: "GIOP.mdl".into(),
        request_message: "GIOPRequest".into(),
        reply_message: "GIOPReply".into(),
        request_action: ActionRule::Field("Operation".parse().unwrap()),
        reply_action: ReplyAction::Correlated,
        request_params: ParamRule::PositionalArray("ParameterArray".parse().unwrap()),
        reply_params: ParamRule::PositionalArray("ParameterArray".parse().unwrap()),
        correlation: Some("RequestID".parse().unwrap()),
        request_defaults: Vec::new(),
        reply_defaults: Vec::new(),
        request_message_overrides: Vec::new(),
        reply_message_overrides: Vec::new(),
    }
}

fn soap_binding() -> ProtocolBinding {
    ProtocolBinding {
        name: "SOAP".into(),
        mdl: "SOAP.mdl".into(),
        request_message: "SOAPRequest".into(),
        reply_message: "SOAPReply".into(),
        request_action: ActionRule::Field("MethodName".parse().unwrap()),
        reply_action: ReplyAction::Field("MethodName".parse().unwrap()),
        request_params: ParamRule::PositionalArray("Params".parse().unwrap()),
        reply_params: ParamRule::PositionalArray("Params".parse().unwrap()),
        correlation: None,
        request_defaults: Vec::new(),
        reply_defaults: Vec::new(),
        request_message_overrides: Vec::new(),
        reply_message_overrides: Vec::new(),
    }
}

fn mediator() -> Mediator {
    let mut b = MergeBuilder::new("Add+Plus", 1, 2);
    b.intertwined(
        template("Add", &["x", "y"]),
        template("Add.reply", &["z"]),
        template("Plus", &["x", "y"]),
        template("Plus.reply", &["z"]),
        "m2.x = m1.x\nm2.y = m1.y",
        "m5.z = m4.z",
    )
    .unwrap();
    Mediator::new(
        b.finish().unwrap().0,
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap()),
                endpoint: None,
            },
            ColorRuntime {
                color: 2,
                binding: soap_binding(),
                codec: Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap()),
                endpoint: Some(Endpoint::memory("plus-service")),
            },
        ],
        NetworkEngine::new(), // never touched: the core does no I/O
    )
    .unwrap()
}

/// The scripted wire bytes of one traversal: the client's GIOP `Add`
/// request and the service's SOAP `Plus` reply.
fn wires() -> (Vec<u8>, Vec<u8>) {
    let mut add = AbstractMessage::new("Add");
    add.set_field("x", Value::Int(30));
    add.set_field("y", Value::Int(12));
    let mut request = giop_binding().bind_request(&add).unwrap();
    request
        .set_path(&"RequestID".parse().unwrap(), Value::UInt(7))
        .unwrap();
    let mut plus = AbstractMessage::new("Plus.reply");
    plus.set_field("z", Value::Int(42));
    let reply = soap_binding().bind_reply(&plus, None).unwrap();
    (
        MdlCodec::from_text(GIOPISH_MDL)
            .unwrap()
            .compose(&request)
            .unwrap(),
        MdlCodec::from_text(SOAPISH_MDL)
            .unwrap()
            .compose(&reply)
            .unwrap(),
    )
}

/// Runs one core call, recycling its send buffers as the drivers do,
/// and returns the allocations it made.
fn counted(core: &mut SessionCore, call: impl FnOnce(&mut SessionCore) -> Vec<SessionIo>) -> u64 {
    let before = allocations();
    for io in call(core) {
        if let SessionIo::SendWire { bytes, .. } = io {
            core.recycle_wire_buf(bytes);
        }
    }
    allocations() - before
}

/// Runs one traversal and returns the allocations made inside the
/// core's calls (the scripted input is copied outside them).
fn traversal_allocations(core: &mut SessionCore, wires: &(Vec<u8>, Vec<u8>)) -> u64 {
    let (request, reply) = wires.clone();
    let n = counted(core, |core| core.restart().unwrap())
        + counted(core, |core| {
            core.step(SessionEvent::WireReceived {
                color: 1,
                bytes: request,
            })
            .unwrap()
        })
        + counted(core, |core| {
            core.step(SessionEvent::WireReceived {
                color: 2,
                bytes: reply,
            })
            .unwrap()
        });
    assert!(core.is_finished());
    n
}

/// Traversals measured after warm-up.
const MEASURED: u64 = 32;

/// Allocations over [`MEASURED`] steady-state traversals of a core
/// driven from `mediator`, after a warm-up that lets its buffers and
/// caches grow.
fn steady_state_allocations(mediator: &Mediator) -> u64 {
    let wires = wires();
    let mut core = SessionCore::new(mediator.session_spec(), SessionPersist::new()).unwrap();
    core.start().unwrap();
    for _ in 0..4 {
        traversal_allocations(&mut core, &wires);
    }
    (0..MEASURED)
        .map(|_| traversal_allocations(&mut core, &wires))
        .sum()
}

#[test]
fn recorder_adds_no_allocation_to_a_steady_state_traversal() {
    let noop = steady_state_allocations(&mediator());
    let recorder = Arc::new(Recorder::new());
    let recorded = steady_state_allocations(&mediator().with_telemetry(recorder.clone()));
    eprintln!("allocations over {MEASURED} traversals: no-op sink {noop}, recorder {recorded}");
    // The recorder did count the traversals.
    assert!(
        recorder
            .snapshot()
            .counter("starlink_sessions_finished_total")
            >= MEASURED
    );
    assert!(
        noop <= BUDGET * MEASURED,
        "no-op sink: {noop} allocations over {MEASURED} traversals, budget {BUDGET} each"
    );
    assert_eq!(
        recorded, noop,
        "a Recorder must add no allocation to a traversal"
    );
}
