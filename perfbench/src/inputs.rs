//! Seeded input generation: graphs come from `ftc_graph::generators`,
//! fault sets, query pairs and request mixes from the generator here.

use ftc_graph::Graph;

/// SplitMix64: small, seedable, and the same stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A stream derived from `seed` and `stream`, independent of the
    /// streams of other `stream` values.
    pub fn derived(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Every edge of `g` as an endpoint pair, indexed by edge id.
pub fn edge_pairs(g: &Graph) -> Vec<(usize, usize)> {
    g.edge_iter().map(|(_, u, v)| (u, v)).collect()
}

/// `f` distinct edges drawn from `edges`, sorted.
pub fn fault_set(rng: &mut Rng, edges: &[(usize, usize)], f: usize) -> Vec<(usize, usize)> {
    let mut ids: Vec<usize> = Vec::with_capacity(f);
    while ids.len() < f.min(edges.len()) {
        let e = rng.below(edges.len());
        if !ids.contains(&e) {
            ids.push(e);
        }
    }
    ids.sort_unstable();
    ids.into_iter().map(|e| edges[e]).collect()
}

/// `count` query pairs `(s, t)` with `s != t` over `n` vertices.
pub fn pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|_| loop {
            let (s, t) = (rng.below(n), rng.below(n));
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// A pool of query pairs that request batches are cut from.
#[derive(Clone, Debug)]
pub struct PairPool {
    pairs: Vec<(usize, usize)>,
}

impl PairPool {
    pub fn new(rng: &mut Rng, n: usize, size: usize) -> PairPool {
        PairPool {
            pairs: pairs(rng, n, size.max(1)),
        }
    }

    /// Batch `i` of `size` pairs: the pool read cyclically from offset
    /// `i · size`, so any batch size works against any pool size.
    pub fn batch(&self, i: usize, size: usize) -> Vec<(usize, usize)> {
        let p = self.pairs.len();
        let start = i.wrapping_mul(size) % p;
        (0..size).map(|j| self.pairs[(start + j) % p]).collect()
    }
}

/// Answers packed one bit each, for the checks after the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bits {
    len: usize,
    words: Vec<u64>,
}

impl Bits {
    pub fn pack(bits: &[bool]) -> Bits {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[i / 64] |= 1 << (i % 64);
        }
        Bits {
            len: bits.len(),
            words,
        }
    }

    pub fn unpack(&self) -> Vec<bool> {
        (0..self.len)
            .map(|i| self.words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_slice_any_size_against_any_pool() {
        let mut rng = Rng::new(1);
        let pool = PairPool::new(&mut rng, 50, 4);
        // Batch larger than, equal to, and smaller than the pool.
        for size in [1, 3, 4, 5, 4096] {
            for i in [0, 1, 7, usize::MAX / 2] {
                let b = pool.batch(i, size);
                assert_eq!(b.len(), size);
                assert!(b.iter().all(|&(s, t)| s != t && s < 50 && t < 50));
            }
        }
        assert_eq!(pool.batch(1, 2), pool.batch(0, 4)[2..].to_vec());
    }

    #[test]
    fn same_seed_same_inputs() {
        let edges: Vec<(usize, usize)> = (0..100).map(|i| (i, i + 1)).collect();
        let a = fault_set(&mut Rng::derived(9, 3), &edges, 4);
        let b = fault_set(&mut Rng::derived(9, 3), &edges, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_ne!(a, fault_set(&mut Rng::derived(9, 4), &edges, 4));
    }

    #[test]
    fn bits_round_trip() {
        for len in [0, 1, 63, 64, 65, 2048] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 7 == 1).collect();
            let packed = Bits::pack(&bits);
            assert_eq!(packed.unpack(), bits);
            if len > 0 {
                let mut flipped = bits.clone();
                flipped[len - 1] = !flipped[len - 1];
                assert_ne!(Bits::pack(&flipped), packed);
            }
        }
    }
}
