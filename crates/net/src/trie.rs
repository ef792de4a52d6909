//! Binary radix trie for longest-prefix matching.
//!
//! IP→AS mapping (paper §3.2, step 1) requires, for every traceroute hop,
//! finding the most specific announced prefix covering the address — the
//! operation routers perform on every packet and bdrmapIT performs on every
//! hop. This trie stores `(Prefix, T)` pairs and answers longest-prefix
//! queries in at most 32 node steps.

use crate::ip::{Ip4, Prefix};

/// A node in the binary trie, stored in the arena. Children index 0
/// follows a 0 bit; [`NONE`] marks an absent child.
struct Node<T> {
    children: [u32; 2],
    /// Payload if a prefix terminates at this node.
    value: Option<T>,
}

const NONE: u32 = u32::MAX;

impl<T> Node<T> {
    fn new() -> Self {
        Self {
            children: [NONE, NONE],
            value: None,
        }
    }
}

/// Longest-prefix-match table.
///
/// Nodes live in one flat arena indexed by `u32` rather than one `Box`
/// per node: a populated RIB allocates hundreds of thousands of nodes,
/// and the boxed layout cost two pointers plus allocator overhead per
/// node while scattering lookups across the heap. The arena form is one
/// allocation, 16 bytes per node for `T = Asn`, and walks sequentially
/// allocated (therefore cache-adjacent) insertion paths. Node 0 is the
/// root and always present.
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a prefix, returning the previous value if the exact prefix
    /// was already present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut at = 0usize;
        let net = prefix.network();
        for i in 0..prefix.len() {
            let b = net.bit(i) as usize;
            let mut next = self.nodes[at].children[b];
            if next == NONE {
                next = u32::try_from(self.nodes.len()).expect("trie arena overflow");
                self.nodes.push(Node::new());
                self.nodes[at].children[b] = next;
            }
            at = next as usize;
        }
        let old = self.nodes[at].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value of the exact prefix, if stored.
    pub fn get_exact(&self, prefix: &Prefix) -> Option<&T> {
        let mut at = 0usize;
        let net = prefix.network();
        for i in 0..prefix.len() {
            let b = net.bit(i) as usize;
            let next = self.nodes[at].children[b];
            if next == NONE {
                return None;
            }
            at = next as usize;
        }
        self.nodes[at].value.as_ref()
    }

    /// Longest-prefix match for an address: the most specific stored
    /// prefix containing `ip`, with its value.
    pub fn lookup(&self, ip: Ip4) -> Option<(Prefix, &T)> {
        let mut at = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let b = ip.bit(i) as usize;
            let next = self.nodes[at].children[b];
            if next == NONE {
                break;
            }
            at = next as usize;
            if let Some(v) = self.nodes[at].value.as_ref() {
                best = Some((i + 1, v));
            }
        }
        best.map(|(len, v)| (Prefix::new(ip, len), v))
    }

    /// All stored `(prefix, value)` pairs in trie (lexicographic bit)
    /// order.
    pub fn iter(&self) -> Vec<(Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        // Max depth is 33 (root + 32 bits), so recursion is bounded.
        fn walk<'a, T>(
            nodes: &'a [Node<T>],
            at: usize,
            bits: u32,
            depth: u8,
            out: &mut Vec<(Prefix, &'a T)>,
        ) {
            if let Some(v) = nodes[at].value.as_ref() {
                out.push((Prefix::new(Ip4(bits), depth), v));
            }
            for (b, &child) in nodes[at].children.iter().enumerate() {
                if child != NONE {
                    let nb = if b == 1 && depth < 32 {
                        bits | (1 << (31 - depth as u32))
                    } else {
                        bits
                    };
                    walk(nodes, child as usize, nb, depth + 1, out);
                }
            }
        }
        walk(&self.nodes, 0, 0, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_exact_get() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 100), None);
        assert_eq!(t.insert(p("10.1.0.0/16"), 200), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_exact(&p("10.0.0.0/8")), Some(&100));
        assert_eq!(t.get_exact(&p("10.1.0.0/16")), Some(&200));
        assert_eq!(t.get_exact(&p("10.2.0.0/16")), None);
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_exact(&p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "coarse");
        t.insert(p("10.1.0.0/16"), "mid");
        t.insert(p("10.1.2.0/24"), "fine");
        let (pre, v) = t.lookup(ip("10.1.2.3")).unwrap();
        assert_eq!(*v, "fine");
        assert_eq!(pre, p("10.1.2.0/24"));
        assert_eq!(*t.lookup(ip("10.1.9.1")).unwrap().1, "mid");
        assert_eq!(*t.lookup(ip("10.9.9.9")).unwrap().1, "coarse");
        assert!(t.lookup(ip("11.0.0.1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("192.0.2.0/24"), "doc");
        assert_eq!(*t.lookup(ip("8.8.8.8")).unwrap().1, "default");
        assert_eq!(*t.lookup(ip("192.0.2.55")).unwrap().1, "doc");
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.1/32"), 1);
        assert!(t.lookup(ip("192.0.2.1")).is_some());
        assert!(t.lookup(ip("192.0.2.2")).is_none());
    }

    #[test]
    fn lookup_matches_linear_scan_on_many_prefixes() {
        // Build ~300 deterministic prefixes and compare trie LPM with a
        // brute-force longest-match scan.
        let mut prefixes = Vec::new();
        let mut x: u32 = 0x12345678;
        for i in 0..300u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let len = 8 + (x % 17) as u8; // /8../24
            let addr = Ip4(x ^ i.wrapping_mul(2654435761));
            prefixes.push((Prefix::new(addr, len), i));
        }
        let mut t = PrefixTrie::new();
        let mut dedup = std::collections::HashMap::new();
        for (pre, v) in &prefixes {
            t.insert(*pre, *v);
            dedup.insert(*pre, *v); // later insert wins, same as trie
        }
        for k in 0..200u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let probe = Ip4(x ^ k.wrapping_mul(40503));
            let got = t.lookup(probe).map(|(pre, v)| (pre, *v));
            let want = dedup
                .iter()
                .filter(|(pre, _)| pre.contains(probe))
                .max_by_key(|(pre, _)| pre.len())
                .map(|(pre, v)| (*pre, *v));
            match (got, want) {
                (None, None) => {}
                (Some((gp, gv)), Some((wp, wv))) => {
                    assert_eq!(gp.len(), wp.len(), "probe {probe}");
                    // Same length implies same prefix (both contain probe).
                    assert_eq!(gv, wv, "probe {probe}");
                }
                other => panic!("probe {probe}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn iter_returns_all_inserted() {
        let mut t = PrefixTrie::new();
        let ps = [
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("192.0.2.0/24"),
            p("0.0.0.0/0"),
        ];
        for (i, pre) in ps.iter().enumerate() {
            t.insert(*pre, i);
        }
        let got: std::collections::HashSet<Prefix> =
            t.iter().into_iter().map(|(pre, _)| pre).collect();
        assert_eq!(got.len(), 4);
        for pre in &ps {
            assert!(got.contains(pre), "{pre} missing from iter");
        }
    }

    #[test]
    fn iter_reconstructs_prefix_bits_correctly() {
        let mut t = PrefixTrie::new();
        t.insert(p("128.0.0.0/1"), 0);
        t.insert(p("255.255.255.255/32"), 1);
        let items = t.iter();
        let strs: Vec<String> = items.iter().map(|(pre, _)| pre.to_string()).collect();
        assert!(strs.contains(&"128.0.0.0/1".to_string()), "{strs:?}");
        assert!(strs.contains(&"255.255.255.255/32".to_string()), "{strs:?}");
    }
}
