//! The reference the benchmark checks the program against: a key-set
//! model, the satellite words each key must carry, and the seeded input
//! generators. Nothing here calls into the program, so a fault in the
//! program cannot also hide in its own reference.

use std::collections::HashMap;

/// SplitMix64 finaliser, kept apart from the program's own mixers.
#[must_use]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The satellite words `key` must carry: recomputed from the key on every
/// check, never read back from anything the program stored.
#[must_use]
pub fn satellite(key: u64, words: usize) -> Vec<u64> {
    (0..words as u64)
        .map(|i| splitmix(key ^ 0x5A7E_11FE_0000_0000 ^ (i << 56)))
        .collect()
}

/// Deterministic pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed ^ 0x00BE_7C11_5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Keys of a `2^bits` universe, drawn through a seeded bijection of an
/// index: indices below `2^(bits-1)` name keys that may be inserted, the
/// upper half names keys that never are. Fresh keys are taken in index
/// order, so no key is ever inserted twice in a run, and a lookup of an
/// upper-half key is a miss by construction.
#[derive(Debug, Clone)]
pub struct KeySpace {
    bits: u32,
    mask: u64,
    salt: u64,
    next_fresh: u64,
}

impl KeySpace {
    #[must_use]
    pub fn new(bits: u32, seed: u64) -> Self {
        assert!((8..=63).contains(&bits), "universe of 2^{bits} keys");
        KeySpace {
            bits,
            mask: (1u64 << bits) - 1,
            salt: splitmix(seed ^ 0x0C0F_FEE0),
            next_fresh: 0,
        }
    }

    fn key_at(&self, index: u64) -> u64 {
        // Each step is a bijection of `[0, 2^bits)`: xor with a constant,
        // multiplication by an odd constant, and a right xor-shift.
        let m = self.mask;
        let mut x = (index ^ self.salt) & m;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & m;
        x ^= x >> (self.bits / 2);
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93 | 1) & m;
        x ^= x >> (self.bits / 3 + 1);
        x
    }

    /// A key never handed out before.
    pub fn fresh(&mut self) -> u64 {
        assert!(
            self.next_fresh < 1u64 << (self.bits - 1),
            "fresh keys exhausted"
        );
        let k = self.key_at(self.next_fresh);
        self.next_fresh += 1;
        k
    }

    /// The `i`-th key that is never inserted.
    #[must_use]
    pub fn absent(&self, i: u64) -> u64 {
        self.key_at((1u64 << (self.bits - 1)) | (i & (self.mask >> 1)))
    }
}

/// The set of keys that must be present, with O(1) uniform choice.
#[derive(Debug, Default, Clone)]
pub struct KeySet {
    keys: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl KeySet {
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.pos.contains_key(&key)
    }

    pub fn insert(&mut self, key: u64) {
        let prev = self.pos.insert(key, self.keys.len());
        assert!(prev.is_none(), "model: key {key} inserted twice");
        self.keys.push(key);
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.pos.remove(&key) else {
            return false;
        };
        self.keys.swap_remove(i);
        if let Some(&moved) = self.keys.get(i) {
            self.pos.insert(moved, i);
        }
        true
    }

    /// A uniformly chosen present key.
    pub fn choose(&self, rng: &mut Rng) -> u64 {
        self.keys[rng.below(self.keys.len() as u64) as usize]
    }

    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Zipf(θ) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_space_halves_never_meet() {
        let mut ks = KeySpace::new(12, 7);
        let fresh: HashSet<u64> = (0..2048).map(|_| ks.fresh()).collect();
        let absent: HashSet<u64> = (0..2048).map(|i| ks.absent(i)).collect();
        assert_eq!(fresh.len(), 2048);
        assert_eq!(absent.len(), 2048);
        assert!(fresh.is_disjoint(&absent));
        assert!(fresh.iter().chain(&absent).all(|&k| k < 1 << 12));
    }

    #[test]
    fn key_set_tracks_membership() {
        let mut s = KeySet::default();
        for k in 0..10 {
            s.insert(k);
        }
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3) && s.contains(9));
        let mut rng = Rng::new(1);
        assert!((0..100).all(|_| s.choose(&mut rng) != 3));
    }
}
