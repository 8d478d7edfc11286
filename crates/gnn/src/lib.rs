//! Graph-neural-network predictive model for PT-Map, built from scratch.
//!
//! The paper predicts the two quantities only loop scheduling can
//! normally provide — the mapped initiation interval (`II_map`) and the
//! pipeline fill/drain cycles (`ProEpi`) — with a GNN over the DFG
//! (`G_sw`, GAT layers), the PE graph (`G_hw`, GCN layers), and a small
//! meta-feature vector. This crate implements the full stack with no ML
//! dependencies:
//!
//! * [`tensor`] — a dense `f32` matrix;
//! * [`autograd`] — a tape-based reverse-mode differentiation engine
//!   (gradient-checked in its tests);
//! * [`features`] — the Tab. 3 input representations;
//! * [`model`] — the Fig. 5d architecture with the three Tab. 2 task
//!   heads and the Fig. 6 ablation variants: a tape forward for
//!   training and a tape-free one for inference, bit-identical heads;
//! * [`mod@train`] — Adam, the two-term II-residual loss, alternating
//!   multi-task training, and MAPE evaluation;
//! * [`dataset`] — synthetic dataset generation labeled by the
//!   modulo-scheduling mapper (Tab. 4's pipeline at reduced scale).
//!
//! # Example
//!
//! Train a small model on a synthetic dataset and predict:
//!
//! ```
//! use ptmap_gnn::dataset::{generate_dataset, DatasetConfig};
//! use ptmap_gnn::model::{ModelConfig, PtMapGnn};
//! use ptmap_gnn::train::{train, TrainConfig};
//!
//! let data = generate_dataset(&DatasetConfig {
//!     samples: 24,
//!     archs: vec![ptmap_arch::presets::s4()],
//!     ..DatasetConfig::default()
//! });
//! let mut model = PtMapGnn::new(ModelConfig { hidden: 8, ..ModelConfig::default() });
//! train(&mut model, &data, &TrainConfig { epochs: 3, ..TrainConfig::default() });
//! let p = model.predict(&data[0].input);
//! assert!(p.ii >= 1);
//! ```

pub mod autograd;
pub mod dataset;
pub mod features;
pub mod model;
pub mod tensor;
pub mod train;

pub use dataset::{DatasetConfig, Sample};
pub use features::{build_input, build_sw_input, GnnInput, SwInput, SwKey};
pub use model::{GnnVariant, Heads, HwEmbedding, ModelConfig, Prediction, PtMapGnn};
pub use tensor::Matrix;
pub use train::{
    fine_tune, mape_cycles, mape_cycles_detailed, mape_cycles_mii, mape_cycles_mii_detailed, train,
    MapeStats, TrainConfig, TrainStats,
};
