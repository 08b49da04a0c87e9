//! Per-layer timing of the NN models the workloads run: each sign
//! classifier at batch 1 (`serve-tcp`) and batch 8 (`serve-batch`), each
//! detector at batch 1 (`avsim-drive`). The benchmark calls every layer's
//! `forward` in turn on the model's real input shape; weights do not change
//! the work, so untrained models of the same architecture are used.

use crate::measure::{Outcome, Tracer};
use crate::signs::{CLASSES, IMAGE};
use mvml_avsim::bev::rasterize;
use mvml_avsim::detector::{yolo_mini, VARIANTS};
use mvml_avsim::{all_routes, World};
use mvml_nn::models::three_versions;
use mvml_nn::signs::{generate, SignConfig};
use mvml_nn::{Layer, Sequential, Tensor};

const REPS: usize = 40;

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Times `REPS` whole forwards and `REPS` layer-by-layer forwards of
/// `model` on `x`, adding one metric per parametric layer, one for the
/// other layers together, one for the whole forward and the MAC count.
fn probe(model: &mut Sequential, batch: usize, x: &Tensor, tr: &mut Tracer, out: &mut Outcome) {
    let prefix = format!("nn.{}.b{batch}", model.model_name());
    let forward = leak(format!("{prefix}.forward"));
    let names: Vec<&'static str> = model
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if l.param_len() > 0 {
                leak(format!("{prefix}.L{i}.{}", l.name()))
            } else {
                leak(format!("{prefix}.other"))
            }
        })
        .collect();
    // One warm-up forward sizes the layers' scratch buffers.
    model.forward(x, false);
    for rep in 0..REPS {
        tr.span(forward, None, rep as u64, || model.forward(x, false));
        let pass = tr.open("nn.layers", None, rep as u64);
        let mut h = x.clone();
        for (layer, &name) in model.layers_mut().iter_mut().zip(&names) {
            h = tr.span(name, Some(pass), rep as u64, || layer.forward(&h, false));
        }
        tr.close(pass);
    }
    let d = tr.durations_us(forward);
    out.metric(&format!("{forward}_us"), d.median(), "us", d.len());
    let mut seen = Vec::new();
    for &name in &names {
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        // Sum the spans of this name within each pass (the "other" layers
        // share one name), then take the median over passes.
        let mut per_pass = vec![0.0; REPS];
        for s in tr.spans.iter().filter(|s| s.name == name) {
            per_pass[s.req as usize] += s.us();
        }
        let mut samples = crate::measure::Samples::new();
        for v in per_pass {
            samples.push(v);
        }
        out.metric(&format!("{name}_us"), samples.median(), "us", REPS);
    }
    if batch == 1 {
        let macs = model.macs(x.shape()) as f64;
        out.metric(&format!("nn.{}.macs", model.model_name()), macs, "MAC", 1);
    }
}

pub fn trace(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let signs = generate(
        &SignConfig {
            classes: CLASSES,
            image_size: IMAGE,
            ..SignConfig::default()
        },
        8,
        seed,
    );
    for mut model in three_versions(IMAGE, CLASSES, seed) {
        for batch in [1, 8] {
            let idx: Vec<usize> = (0..batch).collect();
            let (x, _) = signs.batch(&idx);
            probe(&mut model, batch, &x, tr, &mut out);
        }
    }
    let route = &all_routes()[0];
    let world = World::new(route);
    let ego = world.ego();
    let grid = rasterize(ego.position(), ego.heading(), &world.ground_truth());
    for (i, (name, channels)) in VARIANTS.iter().enumerate() {
        let mut model = yolo_mini(name, *channels, seed.wrapping_add(i as u64));
        probe(&mut model, 1, &grid, tr, &mut out);
    }
    out
}
