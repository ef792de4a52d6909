//! IPv4 addresses and CIDR prefixes.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address as a host-order `u32` newtype.
///
/// We use our own type rather than `std::net::Ipv4Addr` because the trie,
/// allocator and traceroute simulator all operate on the raw integer, and
/// the newtype keeps bit-twiddling explicit and checked in one place.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ip4(pub u32);

impl Ip4 {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    pub fn octets(&self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The bit at position `i` counted from the most significant (bit 0 is
    /// the top bit). Used by the trie.
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.0 >> (31 - i)) & 1 == 1
    }
}

impl fmt::Display for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error parsing an address or prefix from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseIpError(pub String);

impl fmt::Display for ParseIpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad IPv4 value: {}", self.0)
    }
}

impl std::error::Error for ParseIpError {}

impl FromStr for Ip4 {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ParseIpError(s.to_string()));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            if p.is_empty() || (p.len() > 1 && p.starts_with('0')) {
                return Err(ParseIpError(s.to_string()));
            }
            octets[i] = p.parse::<u8>().map_err(|_| ParseIpError(s.to_string()))?;
        }
        Ok(Ip4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A CIDR prefix. The network address is always masked (host bits zero), so
/// two equal prefixes compare equal regardless of how they were built.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    network: u32,
    len: u8,
}

impl Prefix {
    /// Builds a prefix, masking host bits. `len` is clamped to 32.
    pub fn new(addr: Ip4, len: u8) -> Self {
        let len = len.min(32);
        Self {
            network: addr.0 & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    pub fn network(&self) -> Ip4 {
        Ip4(self.network)
    }

    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturates at `u32::MAX` for /0).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len as u32)
        }
    }

    pub fn contains(&self, ip: Ip4) -> bool {
        ip.0 & Self::mask(self.len) == self.network
    }

    /// True if `other` is fully inside `self` (including equality).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.network())
    }

    /// The `i`-th address inside the prefix; `None` past the end.
    pub fn nth(&self, i: u32) -> Option<Ip4> {
        if self.len == 0 || i < self.size() {
            self.network.checked_add(i).map(Ip4)
        } else {
            None
        }
    }

    /// Splits into the two child prefixes of length `len+1`; `None` at /32.
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let lo = Prefix::new(Ip4(self.network), child_len);
        let hi = Prefix::new(Ip4(self.network | (1 << (31 - self.len as u32))), child_len);
        Some((lo, hi))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParseIpError(s.to_string()))?;
        let ip: Ip4 = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| ParseIpError(s.to_string()))?;
        if len > 32 {
            return Err(ParseIpError(s.to_string()));
        }
        Ok(Prefix::new(ip, len))
    }
}

/// Sequentially allocates disjoint prefixes of a given length out of a
/// parent block — how `igdb-synth` assigns address space to synthetic ASes.
pub struct PrefixAllocator {
    parent: Prefix,
    next: u32,
}

impl PrefixAllocator {
    pub fn new(parent: Prefix) -> Self {
        Self {
            parent,
            next: parent.network().0,
        }
    }

    /// The next free sub-prefix of length `len`, or `None` when the parent
    /// block is exhausted. `len` must be ≥ the parent length.
    pub fn alloc(&mut self, len: u8) -> Option<Prefix> {
        if len < self.parent.len() || len > 32 {
            return None;
        }
        let size = 1u32 << (32 - len as u32);
        // Align upward.
        let aligned = self.next.checked_add(size - 1)? & !(size - 1);
        let end_exclusive = (self.parent.network().0 as u64) + self.parent.size() as u64;
        if (aligned as u64) + (size as u64) > end_exclusive {
            return None;
        }
        self.next = aligned.checked_add(size)?;
        Some(Prefix::new(Ip4(aligned), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_parse_and_display_round_trip() {
        for s in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.1"] {
            let ip: Ip4 = s.parse().unwrap();
            assert_eq!(ip.to_string(), s);
        }
    }

    #[test]
    fn ip_parse_rejects_malformed() {
        for s in [
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "a.b.c.d",
            "01.2.3.4",
            "",
            "1..2.3",
        ] {
            assert!(s.parse::<Ip4>().is_err(), "{s} should fail");
        }
    }

    #[test]
    fn ip_bits_msb_first() {
        let ip = Ip4::new(0b1000_0000, 0, 0, 1);
        assert!(ip.bit(0));
        assert!(!ip.bit(1));
        assert!(ip.bit(31));
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new("10.1.2.3".parse().unwrap(), 24);
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(p, "10.1.2.0/24".parse().unwrap());
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.contains("10.255.0.1".parse().unwrap()));
        assert!(!p.contains("11.0.0.0".parse().unwrap()));
        let q: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.covers(&q));
        assert!(!q.covers(&p));
        assert!(p.covers(&p));
    }

    #[test]
    fn prefix_zero_len_contains_everything() {
        let p: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(p.contains("255.255.255.255".parse().unwrap()));
        assert!(p.contains("0.0.0.0".parse().unwrap()));
        assert_eq!(p.size(), u32::MAX);
    }

    #[test]
    fn prefix_nth_and_bounds() {
        let p: Prefix = "192.0.2.0/30".parse().unwrap();
        assert_eq!(p.nth(0).unwrap().to_string(), "192.0.2.0");
        assert_eq!(p.nth(3).unwrap().to_string(), "192.0.2.3");
        assert!(p.nth(4).is_none());
    }

    #[test]
    fn prefix_split() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (lo, hi) = p.split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        let p32: Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(p32.split().is_none());
    }

    #[test]
    fn prefix_parse_rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn allocator_disjoint_and_exhausts() {
        let parent: Prefix = "10.0.0.0/22".parse().unwrap();
        let mut alloc = PrefixAllocator::new(parent);
        let mut got = Vec::new();
        while let Some(p) = alloc.alloc(24) {
            got.push(p);
        }
        assert_eq!(got.len(), 4);
        for (i, a) in got.iter().enumerate() {
            assert!(parent.covers(a));
            for b in &got[i + 1..] {
                assert!(!a.covers(b) && !b.covers(a), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn allocator_mixed_sizes_align() {
        let mut alloc = PrefixAllocator::new("10.0.0.0/16".parse().unwrap());
        let a = alloc.alloc(26).unwrap(); // 10.0.0.0/26
        let b = alloc.alloc(24).unwrap(); // must skip to the next /24 boundary
        assert_eq!(a.to_string(), "10.0.0.0/26");
        assert_eq!(b.to_string(), "10.0.1.0/24");
        assert!(!a.covers(&b) && !b.covers(&a));
    }

    #[test]
    fn allocator_rejects_larger_than_parent() {
        let mut alloc = PrefixAllocator::new("10.0.0.0/16".parse().unwrap());
        assert!(alloc.alloc(8).is_none());
    }
}
