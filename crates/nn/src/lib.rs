//! # clado-nn
//!
//! The neural-network substrate of the CLADO reproduction: layers with
//! forward *and* backward passes, residual/attention blocks, a [`Network`]
//! container with named quantizable-weight access (what Algorithm 1
//! perturbs), cross-entropy loss, and an SGD trainer.
//!
//! Everything is CPU `f32` over [`clado_tensor::Tensor`]s; no autodiff tape —
//! each layer implements its own adjoint, which keeps the system small and
//! auditable.
//!
//! ## Example
//!
//! ```
//! use clado_nn::{cross_entropy, Linear, Network, Sequential, Sgd};
//! use clado_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(
//!     Sequential::new().push("fc", Linear::new(4, 2, &mut rng)),
//!     2,
//! );
//! let x = Tensor::zeros([1, 4]);
//! let logits = net.forward(x, true);
//! let (loss, grad) = cross_entropy(&logits, &[1]);
//! net.backward(grad);
//! Sgd::new(0.1, 0.9, 1e-4).step(&mut net);
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]

mod act_quant;
mod attention;
mod blocks;
mod conv_layer;
mod dense;
mod int_exec;
mod layer;
mod loss;
mod network;
mod norm;
mod param;
mod sgd;

pub use act_quant::ActQuant;
pub use attention::{MultiHeadAttention, TransformerBlock};
pub use blocks::{PatchEmbed, ResidualBlock, SqueezeExcite, TokenMeanPool};
pub use conv_layer::Conv2d;
pub use dense::Linear;
pub use int_exec::IntExecWeight;
pub use layer::{
    ActKind, Activation, AvgPool2d, Flatten, GlobalAvgPool, Layer, LayerClone, MaxPool2d,
    Sequential,
};
pub use loss::{cross_entropy, cross_entropy_loss, top1_accuracy};
pub use network::{Network, QuantizableLayer};
pub use norm::{BatchNorm2d, LayerNorm};
pub use param::{Param, ParamRole, ParamVisitor, ParamVisitorRef};
pub use sgd::Sgd;
