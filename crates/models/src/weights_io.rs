//! Minimal binary weight serialization.
//!
//! A tiny self-contained little-endian codec (magic + named f32 tensors);
//! used to cache trained models under `target/clado-cache/` so experiments
//! don't retrain across processes. No serde format crate is in this
//! workspace's sanctioned dependency set, hence the hand-rolled format.

use clado_nn::Network;
use std::fmt;
use std::fs;
use std::io::{self, Read};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CLDW";
const VERSION: u32 = 1;

/// Errors produced by weight (de)serialization.
#[derive(Debug)]
pub enum WeightsIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a CLDW weight file or has an unsupported version.
    BadFormat(String),
    /// The file's parameters do not match the network (name or length).
    Mismatch(String),
}

impl fmt::Display for WeightsIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadFormat(m) => write!(f, "bad weight file: {m}"),
            Self::Mismatch(m) => write!(f, "weight/network mismatch: {m}"),
        }
    }
}

impl std::error::Error for WeightsIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WeightsIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Serializes every parameter (including buffers) of `network` to
/// `path`, crash-safely (the weights cache is never left half-written).
///
/// # Errors
///
/// Returns [`WeightsIoError::Io`] on filesystem failures.
pub fn save_weights(network: &mut Network, path: &Path) -> Result<(), WeightsIoError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut entries: Vec<(String, Vec<f32>)> = Vec::new();
    network.visit_params(&mut |name, p| {
        entries.push((name.to_string(), p.value.data().to_vec()));
    });
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, data) in &entries {
        let nb = name.as_bytes();
        buf.extend_from_slice(&(nb.len() as u32).to_le_bytes());
        buf.extend_from_slice(nb);
        buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
        for v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    clado_telemetry::write_durable(path, &buf, "weights.commit")?;
    Ok(())
}

/// Loads parameters saved by [`save_weights`] into `network`.
///
/// # Errors
///
/// Returns an error if the file is malformed or its parameter names/sizes
/// disagree with the network's (visit order is deterministic, so names are
/// compared positionally).
pub fn load_weights(network: &mut Network, path: &Path) -> Result<(), WeightsIoError> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut cur = 0usize;
    let take = |cur: &mut usize, n: usize| -> Result<&[u8], WeightsIoError> {
        if *cur + n > bytes.len() {
            return Err(WeightsIoError::BadFormat("truncated file".into()));
        }
        let s = &bytes[*cur..*cur + n];
        *cur += n;
        Ok(s)
    };
    if take(&mut cur, 4)? != MAGIC {
        return Err(WeightsIoError::BadFormat("missing CLDW magic".into()));
    }
    let version = u32::from_le_bytes(take(&mut cur, 4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(WeightsIoError::BadFormat(format!(
            "unsupported version {version}"
        )));
    }
    let count = u32::from_le_bytes(take(&mut cur, 4)?.try_into().expect("4 bytes")) as usize;
    let mut entries: Vec<(String, Vec<f32>)> = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u32::from_le_bytes(take(&mut cur, 4)?.try_into().expect("4 bytes")) as usize;
        let name = String::from_utf8(take(&mut cur, name_len)?.to_vec())
            .map_err(|_| WeightsIoError::BadFormat("non-utf8 parameter name".into()))?;
        let len = u32::from_le_bytes(take(&mut cur, 4)?.try_into().expect("4 bytes")) as usize;
        let raw = take(&mut cur, len * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        entries.push((name, data));
    }
    let mut idx = 0usize;
    let mut err: Option<WeightsIoError> = None;
    network.visit_params(&mut |name, p| {
        if err.is_some() {
            return;
        }
        let Some((fname, data)) = entries.get(idx) else {
            err = Some(WeightsIoError::Mismatch(format!(
                "file has too few entries at {name}"
            )));
            return;
        };
        if fname != name {
            err = Some(WeightsIoError::Mismatch(format!(
                "expected {name}, file has {fname}"
            )));
            return;
        }
        if data.len() != p.value.numel() {
            err = Some(WeightsIoError::Mismatch(format!(
                "{name}: {} values in file, {} in network",
                data.len(),
                p.value.numel()
            )));
            return;
        }
        p.value.data_mut().copy_from_slice(data);
        idx += 1;
    });
    if let Some(e) = err {
        return Err(e);
    }
    if idx != entries.len() {
        return Err(WeightsIoError::Mismatch(format!(
            "file has {} extra entries",
            entries.len() - idx
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{build_resnet, ResNetConfig};
    use clado_tensor::Tensor;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clado-test-{}-{name}.cldw", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let cfg = ResNetConfig::resnet20_mini(4, 9);
        let mut a = build_resnet(&cfg);
        // Perturb a weight and a BN buffer so defaults don't mask bugs.
        let w = a.weight(0).map(|v| v + 0.25);
        a.set_weight(0, &w);
        let path = temp_path("roundtrip");
        save_weights(&mut a, &path).unwrap();

        let mut b = build_resnet(&ResNetConfig::resnet20_mini(4, 1234)); // different init
        load_weights(&mut b, &path).unwrap();
        let x = Tensor::full([1, 3, 16, 16], 0.3);
        let ya = a.forward(x.clone(), false);
        let yb = b.forward(x, false);
        assert_eq!(ya.data(), yb.data());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let mut a = build_resnet(&ResNetConfig::resnet20_mini(4, 0));
        let path = temp_path("mismatch");
        save_weights(&mut a, &path).unwrap();
        let mut c = build_resnet(&ResNetConfig::resnet34_mini(4, 0));
        let err = load_weights(&mut c, &path).unwrap_err();
        assert!(matches!(err, WeightsIoError::Mismatch(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a weight file").unwrap();
        let mut net = build_resnet(&ResNetConfig::resnet20_mini(4, 0));
        let err = load_weights(&mut net, &path).unwrap_err();
        assert!(matches!(err, WeightsIoError::BadFormat(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut net = build_resnet(&ResNetConfig::resnet20_mini(4, 0));
        let err = load_weights(&mut net, Path::new("/nonexistent/clado.cldw")).unwrap_err();
        assert!(matches!(err, WeightsIoError::Io(_)));
    }
}
