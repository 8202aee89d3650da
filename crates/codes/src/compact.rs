//! Compact syndromes: the characteristic-two redundancy (extension E12).
//!
//! Over a field of characteristic two, the even power sums of any binary
//! edge multiset are Frobenius images of earlier ones: `s_{2j} = s_j²`.
//! A `2k`-element syndrome therefore carries only `k` field elements of
//! information — the odd power sums `s₁, s₃, …, s_{2k−1}` — and labels can
//! be stored at half width and expanded on decode. The paper stores all
//! `2k` elements; this module implements the free 2× reduction, which the
//! `compact_labels` experiment binary validates end to end.
//!
//! Note the compression is only valid for syndromes of *binary* multisets
//! (every genuine outdetect label is one); arbitrary vectors do not
//! satisfy the Frobenius identities, and [`expand`] silently assumes them.

use ftc_field::Gf64;

/// Extracts the odd power sums `s₁, s₃, …` from a full syndrome
/// (`syndrome[i]` holds `s_{i+1}`).
pub fn compress(syndrome: &[Gf64]) -> Vec<Gf64> {
    syndrome.iter().step_by(2).copied().collect()
}

/// Reconstructs the full `2k`-element syndrome from the `k` odd power
/// sums, using `s_{2j} = s_j²`.
pub fn expand(odd: &[Gf64]) -> Vec<Gf64> {
    let mut full = vec![Gf64::ZERO; 2 * odd.len()];
    expand_into(odd.iter().copied(), &mut full);
    full
}

/// Writes the full syndrome of the odd power sums `odd` into `full`
/// without allocating, using `s_{2j} = s_j²`. Every reader of half-width
/// rows expands through here: byte-level edge views, [`expand`], and
/// [`crate::ThresholdCodec::decode_odd_into`], which expands only the
/// prefix Berlekamp–Massey fits.
///
/// # Panics
///
/// Panics if `full.len()` is not twice the number of odd power sums.
pub fn expand_into(odd: impl IntoIterator<Item = Gf64>, full: &mut [Gf64]) {
    let mut k = 0;
    for (j, s) in odd.into_iter().enumerate() {
        full[2 * j] = s; // s_{2j+1}
        k = j + 1;
    }
    assert_eq!(
        full.len(),
        2 * k,
        "full syndrome must be twice the odd sums"
    );
    // Even entries in increasing order: s_{2j} depends on s_j with j < 2j.
    for i in (2..=2 * k).step_by(2) {
        full[i - 1] = full[i / 2 - 1].square(); // s_i = (s_{i/2})²
    }
}

/// Bits saved by compact storage: exactly half of the syndrome payload.
pub fn compact_bits(k: usize) -> usize {
    k * 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdCodec;

    fn genuine_syndrome(k: usize, edges: &[u64]) -> Vec<Gf64> {
        let codec = ThresholdCodec::new(k);
        let mut s = codec.zero_syndrome();
        for &e in edges {
            codec.accumulate_edge(&mut s, Gf64::new(e));
        }
        s
    }

    #[test]
    fn round_trip_on_genuine_syndromes() {
        for edges in [
            vec![5u64],
            vec![3, 9, 27],
            (1..=12u64).map(|i| i * 771).collect(),
        ] {
            let s = genuine_syndrome(16, &edges);
            let c = compress(&s);
            assert_eq!(c.len(), 16);
            assert_eq!(expand(&c), s, "expansion must be lossless for {edges:?}");
        }
    }

    #[test]
    fn expand_into_matches_expand_and_overwrites() {
        let s = genuine_syndrome(5, &[7, 70, 700]);
        let odd = compress(&s);
        // Stale contents must not leak into the expansion.
        let mut full = vec![Gf64::new(0xdead); 10];
        expand_into(odd.iter().copied(), &mut full);
        assert_eq!(full, s);
        assert_eq!(expand(&odd), s);
    }

    #[test]
    #[should_panic(expected = "twice the odd sums")]
    fn expand_into_rejects_a_short_output_geometry() {
        let mut full = vec![Gf64::ZERO; 6];
        expand_into([Gf64::ONE, Gf64::ONE], &mut full);
    }

    #[test]
    fn decode_equivalence() {
        let codec = ThresholdCodec::new(8);
        let edges: Vec<u64> = vec![0xa, 0xbb, 0xccc, 0xdddd];
        let s = genuine_syndrome(8, &edges);
        let expanded = expand(&compress(&s));
        let mut a = codec.decode_adaptive(&s).unwrap();
        let mut b = codec.decode_adaptive(&expanded).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn empty_syndrome_round_trip() {
        let s = genuine_syndrome(4, &[]);
        assert_eq!(expand(&compress(&s)), s);
    }

    #[test]
    fn xor_commutes_with_compression() {
        // Compact labels stay XOR-mergeable: compress is linear.
        let s1 = genuine_syndrome(6, &[1, 2, 3]);
        let s2 = genuine_syndrome(6, &[3, 4]);
        let mut merged = s1.clone();
        ThresholdCodec::xor_into(&mut merged, &s2);
        let mut c = compress(&s1);
        for (a, b) in c.iter_mut().zip(compress(&s2)) {
            *a += b;
        }
        assert_eq!(c, compress(&merged));
        assert_eq!(expand(&c), merged);
    }

    #[test]
    fn bit_accounting() {
        assert_eq!(compact_bits(10), 640);
        let codec = ThresholdCodec::new(10);
        assert_eq!(codec.label_bits(), 2 * compact_bits(10));
    }
}
