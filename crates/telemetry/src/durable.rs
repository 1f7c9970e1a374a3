//! The two persistence primitives every on-disk and on-wire format of
//! the workspace shares: the FNV-1a hash behind config fingerprints,
//! frame checksums and file checksums, and the crash-safe file write.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a (64-bit) over raw bytes. The hash is streaming, so hashing
/// `a ‖ b` equals continuing the hash of `a` over `b`; callers that
/// fingerprint several fields simply concatenate their encodings.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Writes `data` to `path` so that a crash at any instant leaves either
/// the previous file or the complete new one, never a torn mix:
/// write `<path>.tmp` → fsync → rename over `path` → fsync the
/// directory. The fail point `fault_point` fires between the fsync and
/// the rename, so an `abort` armed there leaves only the durable tmp
/// file behind — the crash every reader of these files must shrug off.
///
/// # Errors
///
/// Any filesystem failure; the tmp file may then be left behind.
pub fn write_durable(path: &Path, data: &[u8], fault_point: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut file = fs::File::create(tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
    }
    crate::faultpoint!(fault_point);
    fs::rename(tmp, path)?;
    // The rename itself must be durable before callers count the write
    // as committed.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn write_durable_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("clado-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bin");
        write_durable(&path, b"first", "test.durable").unwrap();
        write_durable(&path, b"second", "test.durable").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("x.bin.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
