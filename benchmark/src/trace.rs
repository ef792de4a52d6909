//! The traced pass's output file, in igdb-obs's existing JSONL schema:
//! the registry's own stream (counters, histograms, and its spans — the
//! benchmark's `bench.*` spans with the program's spans nested inside),
//! then the server-side span tree of every timed request, as the slow
//! log writes them (on their server's clock, which starts when it does).
//! `igdb metrics --in FILE --profile` renders it.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use igdb_obs::{JsonMode, Registry};
use igdb_serve::RequestTrace;

pub fn write(path: &Path, reg: &Registry, requests: &[RequestTrace]) -> io::Result<()> {
    let mut out = reg.json_lines(JsonMode::Full);
    // Parent indices are positions among the file's span lines.
    let mut base = reg.spans().len();
    for rt in requests {
        for (i, s) in rt.record.spans.iter().enumerate() {
            // The spans of one request form one tree under its root,
            // named for the request kind so a profile groups by kind.
            let name = if i == 0 {
                format!("serve.request.{}", rt.kind)
            } else {
                s.name.to_string()
            };
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{name}\",\"parent\":{parent},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.depth,
                rt.start_offset_us + s.start_us,
                s.dur_us.unwrap_or(0),
            );
        }
        base += rt.record.spans.len();
    }
    std::fs::write(path, out)
}
