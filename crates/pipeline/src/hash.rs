//! SHA-256 for content addressing, and the one checksummed-file format.
//!
//! A from-scratch FIPS 180-4 implementation (the workspace vendors all
//! external dependencies, so no crypto crate is available). Used for
//! cache keys and file checksums — collision resistance matters, timing
//! side channels do not.
//!
//! A checksummed file is `<64-hex-sha256>\n<payload>`, the checksum
//! covering the exact payload bytes. [`write_framed`] publishes one
//! atomically, [`verify_frame`] checks one, and [`quarantine`] moves a
//! file that failed aside. The report cache and the learner's model
//! snapshots both use it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 digest of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let bit_len = (data.len() as u64).wrapping_mul(8);
    // Message + 0x80 + zero pad + 64-bit length, in 64-byte blocks.
    let mut padded = Vec::with_capacity(data.len() + 72);
    padded.extend_from_slice(data);
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in padded.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lowercase hex rendering of a digest.
pub fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        use std::fmt::Write;
        write!(s, "{b:02x}").unwrap();
    }
    s
}

/// Hex SHA-256 of a string — the cache-key entry point.
pub fn sha256_hex(text: &str) -> String {
    hex(&sha256(text.as_bytes()))
}

/// Writes `payload` to `path` as a checksummed file. The frame goes to
/// a temp file named uniquely per process and write, then is renamed
/// over `path`, so a reader never sees a torn file and two writers
/// racing on one path never publish each other's half-written bytes.
pub fn write_framed(path: &Path, payload: &str) -> std::io::Result<()> {
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let framed = format!("{}\n{payload}", sha256_hex(payload));
    let written = std::fs::write(&tmp, framed).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Verifies a checksummed file's bytes and returns its payload, or
/// names the first check that failed.
pub fn verify_frame(bytes: &[u8]) -> Result<&str, &'static str> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8")?;
    let (checksum, payload) = text.split_once('\n').ok_or("missing checksum header")?;
    if checksum.len() != 64 || !checksum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("malformed checksum header");
    }
    if sha256_hex(payload) != checksum {
        return Err("checksum mismatch");
    }
    Ok(payload)
}

/// Moves a file that failed verification to `<path>.corrupt`, where it
/// stays for post-mortems and never shadows a rewrite. If the rename
/// fails (someone else already moved or deleted it) the file is
/// removed.
pub fn quarantine(path: &Path) {
    let mut dst = path.as_os_str().to_owned();
    dst.push(".corrupt");
    if std::fs::rename(path, &dst).is_err() {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_files_round_trip_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("ptmap-hash-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        write_framed(&path, "{\"a\":1}").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes,
            format!("{}\n{{\"a\":1}}", sha256_hex("{\"a\":1}")).as_bytes()
        );
        assert_eq!(verify_frame(&bytes), Ok("{\"a\":1}"));
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 1, "no temp file survives a write");

        quarantine(&path);
        assert!(!path.exists());
        assert!(dir.join("entry.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_input() {
        assert_eq!(
            sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let m = "a".repeat(1_000_000);
        assert_eq!(
            sha256_hex(&m),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn length_padding_boundaries() {
        // 55/56/64-byte inputs cross the pad-block boundary.
        for len in [55usize, 56, 63, 64, 65] {
            let input = "x".repeat(len);
            let d1 = sha256_hex(&input);
            let d2 = sha256_hex(&input);
            assert_eq!(d1, d2);
            assert_eq!(d1.len(), 64);
            assert_ne!(d1, sha256_hex(&"y".repeat(len)));
        }
    }
}
