//! Property tests of the wire protocol's decoders.
//!
//! * Every `Request` / `Response` survives encode → frame → decode.
//! * Hostile bytes — a valid encoding cut short, overwritten, extended, or
//!   plain noise — through `Request::decode`, `Response::decode` and
//!   `read_frame` give a value or a typed error: never a panic, and never
//!   heap sized by a length the sender merely claimed (what a decoded
//!   value owns is bounded by the bytes that were present).

use igdb_fault::ServeError;
use igdb_serve::proto::{
    read_frame, write_frame, FrameError, ProtoError, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use igdb_serve::recorder::{ClientRow, HistDigest, RecorderSnapshot};
use igdb_serve::{Introspection, Request, Response};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Panic),
        Just(Request::Introspect),
        (any::<u32>(), any::<u32>()).prop_map(|(from, to)| Request::SpQuery { from, to }),
        vec((any::<u32>(), any::<u32>()), 0..40).prop_map(|pairs| Request::SpBatch { pairs }),
        (any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>()).prop_map(
            |(west, south, east, north)| Request::RiskExposure {
                west,
                south,
                east,
                north
            }
        ),
        any::<u16>().prop_map(|top_n| Request::Footprint { top_n }),
        any::<u32>().prop_map(|ms| Request::Sleep { ms }),
    ]
    .boxed()
}

/// Every field of an `Introspection` drawn from one pool of words, so a
/// pair of fields swapped between encoder and decoder cannot cancel out.
fn arb_introspection() -> impl Strategy<Value = Introspection> {
    (
        vec(any::<u64>(), 160),
        0usize..4,
        0usize..6,
        any::<bool>(),
        "[a-z._{} 0-9]{0,60}",
    )
        .prop_map(|(pool, n_clients, n_pins, draining, counters)| {
            let pool = std::cell::RefCell::new(pool.into_iter());
            let w = || {
                pool.borrow_mut()
                    .next()
                    .expect("pool sized for the largest snapshot")
            };
            let five = || [w(), w(), w(), w(), w()];
            let digest = || HistDigest {
                count: w(),
                p50_us: w(),
                p99_us: w(),
                max_us: w(),
            };
            let clients = (0..n_clients)
                .map(|_| ClientRow {
                    conn: w(),
                    requests: w(),
                    ok: w(),
                    err: five(),
                    rejected: five(),
                    bytes_in: w(),
                    bytes_out: w(),
                    queue_wait: digest(),
                })
                .collect();
            let recorder = RecorderSnapshot {
                requests: w(),
                ok: w(),
                err: five(),
                live: w(),
                rejected: five(),
                bytes_in: w(),
                bytes_out: w(),
                ring_len: w() as u32,
                ring_cap: w() as u32,
                slow_count: w(),
                slow_ms: w(),
                clients,
                epoch_pins: (0..n_pins).map(|_| (w(), w())).collect(),
                pins_evicted: w(),
                epoch_lag: digest(),
            };
            Introspection {
                epoch: w(),
                uptime_us: w(),
                workers: w() as u32,
                busy_workers: w() as u32,
                queue_depth: w() as u32,
                queue_capacity: w() as u32,
                n_metros: w() as u32,
                draining,
                recorder,
                counters,
            }
        })
}

fn arb_response() -> BoxedStrategy<Response> {
    let detail = || "[a-z :0-9]{0,40}";
    prop_oneof![
        Just(Response::Pong),
        Just(Response::NoRoute),
        Just(Response::Slept),
        (any::<u32>(), any::<f64>()).prop_map(|(hops, km)| Response::Path { hops, km }),
        (any::<u32>(), any::<u32>(), any::<f64>()).prop_map(|(routed, unreachable, total_km)| {
            Response::Batch {
                routed,
                unreachable,
                total_km,
            }
        }),
        vec(any::<u32>(), 4).prop_map(|v| Response::Risk {
            paths: v[0],
            cables: v[1],
            metros: v[2],
            ases: v[3]
        }),
        any::<u32>().prop_map(|rows| Response::Footprint { rows }),
        arb_introspection().prop_map(|i| Response::Introspect(Box::new(i))),
        detail().prop_map(|detail| Response::Error(ServeError::BadRequest { detail })),
        detail().prop_map(|detail| Response::Error(ServeError::Internal { detail })),
        any::<u64>().prop_map(|budget_ms| Response::Error(ServeError::Timeout { budget_ms })),
        any::<u32>()
            .prop_map(|queue_depth| Response::Error(ServeError::Overloaded { queue_depth })),
        Just(Response::Error(ServeError::ShuttingDown)),
    ]
    .boxed()
}

/// How a valid encoding is damaged: cut to a prefix, bytes overwritten
/// (positions wrap), a tail appended. Each is absent often enough that
/// some damaged encodings still decode.
type Damage = (Option<u16>, Vec<(u16, u8)>, Vec<u8>);

fn arb_damage() -> impl Strategy<Value = Damage> {
    (
        prop_oneof![2 => Just(None), 1 => any::<u16>().prop_map(Some)],
        vec((any::<u16>(), any::<u8>()), 0..4),
        prop_oneof![2 => Just(Vec::new()), 1 => vec(any::<u8>(), 1..12)],
    )
}

fn damaged(mut bytes: Vec<u8>, (cut, pokes, tail): &Damage) -> Vec<u8> {
    if let Some(cut) = cut {
        bytes.truncate(*cut as usize % (bytes.len() + 1));
    }
    for &(at, b) in pokes {
        if !bytes.is_empty() {
            let at = at as usize % bytes.len();
            bytes[at] = b;
        }
    }
    bytes.extend_from_slice(tail);
    bytes
}

/// The tag a damaged payload is decoded under: its own three times in
/// four, any byte otherwise.
fn arb_tag() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![3 => Just(None), 1 => any::<u8>().prop_map(Some)]
}

/// Heap bytes a decoded request owns.
fn request_heap(req: &Request) -> usize {
    match req {
        Request::SpBatch { pairs } => pairs.capacity() * std::mem::size_of::<(u32, u32)>(),
        _ => 0,
    }
}

/// Heap bytes a decoded response owns.
fn response_heap(resp: &Response) -> usize {
    match resp {
        Response::Introspect(i) => {
            i.recorder.clients.capacity() * std::mem::size_of::<ClientRow>()
                + i.recorder.epoch_pins.capacity() * std::mem::size_of::<(u64, u64)>()
                + i.counters.capacity()
        }
        Response::Error(ServeError::BadRequest { detail } | ServeError::Internal { detail }) => {
            detail.capacity()
        }
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn requests_roundtrip_through_a_frame(
        req in arb_request(),
        id in any::<u64>(),
        deadline_ms in any::<u32>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, id, deadline_ms, req.op(), &req.encode_payload()).unwrap();
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!((frame.id, frame.deadline_ms, frame.op), (id, deadline_ms, req.op()));
        prop_assert_eq!(Request::decode(frame.op, &frame.payload), Ok(req));
    }

    #[test]
    fn responses_roundtrip_through_a_frame(resp in arb_response(), id in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, id, 0, resp.tag(), &resp.encode_payload()).unwrap();
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!((frame.id, frame.op), (id, resp.tag()));
        prop_assert_eq!(Response::decode(frame.op, &frame.payload), Ok(resp));
    }

    #[test]
    fn hostile_request_payloads_decode_or_fail_typed(
        seed in arb_request(),
        damage in arb_damage(),
        op in arb_tag(),
    ) {
        let op = op.unwrap_or(seed.op());
        let payload = damaged(seed.encode_payload(), &damage);
        if let Ok(req) = Request::decode(op, &payload) {
            prop_assert!(request_heap(&req) <= payload.len());
            // Trailing bytes are refused, so what decodes is canonical.
            prop_assert_eq!((req.op(), req.encode_payload()), (op, payload));
        }
    }

    #[test]
    fn hostile_response_payloads_decode_or_fail_typed(
        seed in arb_response(),
        damage in arb_damage(),
        tag in arb_tag(),
    ) {
        let tag = tag.unwrap_or(seed.tag());
        let payload = damaged(seed.encode_payload(), &damage);
        if let Ok(resp) = Response::decode(tag, &payload) {
            prop_assert_eq!(resp.tag(), tag);
            // Lossy UTF-8 repair writes three bytes per bad one.
            prop_assert!(response_heap(&resp) <= 3 * payload.len());
        }
    }

    #[test]
    fn hostile_wire_bytes_frame_or_fail_typed(
        seed in arb_response(),
        damage in arb_damage(),
        max_frame in prop_oneof![Just(DEFAULT_MAX_FRAME), Just(u32::MAX), 0u32..64],
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, 0, seed.tag(), &seed.encode_payload()).unwrap();
        let wire = damaged(wire, &damage);
        let mut rest = wire.as_slice();
        match read_frame(&mut rest, max_frame) {
            Ok(frame) => {
                prop_assert!(frame.payload.len() <= max_frame as usize);
                // Exactly one frame is consumed, and its buffer grew with
                // the bytes read (at most doubling), not with the header.
                prop_assert_eq!(rest.len(), wire.len() - HEADER_LEN - frame.payload.len());
                prop_assert!(frame.payload.capacity() <= 2 * frame.payload.len() + 64);
            }
            Err(FrameError::CleanEof) => prop_assert!(wire.is_empty()),
            Err(FrameError::Proto(
                ProtoError::BadMagic { .. }
                | ProtoError::FrameTooLarge { .. }
                | ProtoError::Truncated { .. },
            )) => {}
            Err(other) => prop_assert!(false, "untyped failure on in-memory bytes: {other:?}"),
        }
    }
}
