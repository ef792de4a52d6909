//! The benchmark's own seeded request stream.
//!
//! The program's `gen_request` draws route endpoints from every metro; in
//! this world only ~1,500 of 8,000 have a physical edge, so ≥ 96 % of its
//! pairs have an isolated endpoint and answer `NoRoute` at once, and only
//! ~11 % of connected pairs share a component. This generator instead
//! draws endpoints from a fixed universe of ordered pairs of *connected*
//! metros, half of them routable, requested with Zipf(1.0) popularity:
//! the head of the distribution hits the corridor cache, the tail misses.

use igdb_core::Igdb;
use igdb_serve::{Request, Response};

use crate::stats::Rng;

/// Request kinds in print order (the server's own labels).
pub const KINDS: [&str; 5] = ["ping", "sp_query", "sp_batch", "risk", "footprint"];

const UNIVERSE: usize = 4096;

pub struct RequestGen {
    rng: Rng,
    /// Ordered metro pairs by popularity rank; even ranks are routable on
    /// the base epoch, odd ranks are not.
    pairs: Vec<(u32, u32)>,
    /// Zipf(1.0) cumulative distribution over `pairs`.
    cdf: Vec<f64>,
}

impl RequestGen {
    /// Rejection-samples the pair universe on `igdb`'s physical graph.
    /// Small worlds get a smaller universe (whatever 64 draws per slot
    /// yield); the shape stays half routable.
    pub fn new(igdb: &Igdb, seed: u64) -> RequestGen {
        let mut rng = Rng::new(seed ^ 0x5EED_0F5E_127E);
        let graph = igdb.phys_graph();
        let connected: Vec<u32> = (0..graph.engine().node_count())
            .filter(|&m| graph.degree(m) > 0)
            .map(|m| m as u32)
            .collect();
        assert!(
            connected.len() >= 2,
            "world has no physical edges to route over"
        );
        let (mut routable, mut unroutable) = (Vec::new(), Vec::new());
        let half = UNIVERSE / 2;
        for _ in 0..UNIVERSE * 64 {
            if routable.len() >= half && unroutable.len() >= half {
                break;
            }
            let a = connected[rng.below(connected.len())];
            let b = connected[rng.below(connected.len())];
            if a == b {
                continue;
            }
            let side = if graph.shortest_path(a as usize, b as usize).is_some() {
                &mut routable
            } else {
                &mut unroutable
            };
            if side.len() < half {
                side.push((a, b));
            }
        }
        // Interleave so popularity rank is independent of routability. A
        // world with only one kind (a tiny, fully connected one) uses it.
        let n = routable.len().min(unroutable.len());
        let pairs: Vec<(u32, u32)> = if n == 0 {
            routable.into_iter().chain(unroutable).collect()
        } else {
            routable[..n]
                .iter()
                .zip(&unroutable[..n])
                .flat_map(|(r, u)| [*r, *u])
                .collect()
        };
        assert!(
            !pairs.is_empty(),
            "no ordered pair of distinct connected metros"
        );
        let mut cdf = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for rank in 1..=pairs.len() {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        RequestGen { rng, pairs, cdf }
    }

    fn pair(&mut self) -> (u32, u32) {
        let u = self.rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u);
        self.pairs[i.min(self.pairs.len() - 1)]
    }

    /// The fixed mix: 55 % `SpQuery`, 15 % `SpBatch` (2–6 pairs), 10 %
    /// `RiskExposure` (bbox as the program's loadgen draws it), 10 %
    /// `Footprint` (top_n 3–12), 10 % `Ping`.
    pub fn next(&mut self) -> Request {
        match self.rng.below(100) {
            0..=54 => {
                let (from, to) = self.pair();
                Request::SpQuery { from, to }
            }
            55..=69 => {
                let len = 2 + self.rng.below(5);
                Request::SpBatch {
                    pairs: (0..len).map(|_| self.pair()).collect(),
                }
            }
            70..=79 => {
                let west = self.rng.range_f64(-120.0, -70.0);
                let south = self.rng.range_f64(25.0, 45.0);
                Request::RiskExposure {
                    west,
                    south,
                    east: west + self.rng.range_f64(2.0, 15.0),
                    north: south + self.rng.range_f64(2.0, 10.0),
                }
            }
            80..=89 => Request::Footprint {
                top_n: 3 + self.rng.below(10) as u16,
            },
            _ => Request::Ping,
        }
    }
}

/// Whether `resp` is a well-formed success answer to `req`.
pub fn answers(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Ping, Response::Pong) => true,
        (Request::SpQuery { .. }, Response::Path { .. } | Response::NoRoute) => true,
        (
            Request::SpBatch { pairs },
            Response::Batch {
                routed,
                unreachable,
                ..
            },
        ) => (routed + unreachable) as usize == pairs.len(),
        (Request::RiskExposure { .. }, Response::Risk { .. }) => true,
        (Request::Footprint { top_n }, Response::Footprint { rows }) => *rows <= *top_n as u32,
        _ => false,
    }
}
