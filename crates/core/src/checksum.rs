//! XXH64, the 64-bit xxHash of Yann Collet, with seed 0: the checksum
//! of every sealed file (the snapshot and the lint cache, see
//! [`crate::snapshot::seal`]) and the content hash of every source
//! record (see [`crate::manifest`]). It reads 32 bytes per step over
//! four independent lanes, where FNV-1a reads one byte per multiply, so
//! it checks a snapshot body at memory speed. FNV-1a stays wherever a
//! hash is shown to users or pinned: diagnostic fingerprints, the
//! corpus fingerprint and artifact checksums.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// The XXH64 hash of `bytes`, seed 0.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
        h = (h ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::xxh64;

    /// The reference implementation's published test vectors, and one
    /// input long enough to run the four-lane loop and every tail path
    /// (3 stripes, then 4 words, a half word and 3 bytes).
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        let long: Vec<u8> = (0..135u8).collect();
        assert_eq!(long.len(), 3 * 32 + 4 * 8 + 4 + 3);
        assert_eq!(xxh64(&long), LONG);
    }

    /// XXH64 of the bytes 0, 1, …, 134, from an independent
    /// implementation written from the xxHash specification.
    const LONG: u64 = 0x685d_c393_33d5_22e6;
}
