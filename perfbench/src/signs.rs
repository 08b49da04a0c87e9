//! The sign-classifier tenants of the two serve workloads: three trained
//! 1×32×32 classifiers with 43 classes (the GTSRB shape) per tenant.

use mvml_serve::tenant::{eval_dataset, ModelSpec, TenantConfig};

pub const IMAGE: usize = 32;
pub const CLASSES: usize = 43;
/// Request samples pre-generated per tenant.
pub const POOL: usize = 64;

/// A tenant of three sign classifiers. Training is brief (128 samples ×
/// 2 epochs) to keep set-up short; a request costs what it costs on any
/// trained model of these architectures.
pub fn tenant(name: &str, model_seed: u64) -> TenantConfig {
    TenantConfig {
        model: ModelSpec::Trained {
            classes: CLASSES,
            image_size: IMAGE,
            train_samples: 128,
            epochs: 2,
            seed: model_seed,
        },
        ..TenantConfig::passthrough(name, CLASSES)
    }
}

/// `POOL` request samples for each tenant, tenant `i` drawn with seed
/// `seed + i`.
pub fn request_pools(cfgs: &[TenantConfig], seed: u64) -> Vec<Vec<Vec<f32>>> {
    cfgs.iter()
        .enumerate()
        .map(|(i, cfg)| {
            let data = eval_dataset(cfg, POOL, seed.wrapping_add(i as u64))
                .expect("trained tenants have an evaluation set");
            (0..POOL)
                .map(|k| data.batch(&[k]).0.as_slice().to_vec())
                .collect()
        })
        .collect()
}
