//! A warm `Int8Plan` allocates nothing: after one warm-up run, 100 forwards
//! of a detector plan and of a sign-classifier plan allocate 0 bytes, under
//! the scalar kernel and the kernel this host detects. A counting global
//! allocator sees every allocation of the test thread, so this test lives
//! in its own binary.

use mvml_avsim::bev::{rasterize, CELLS};
use mvml_avsim::detector::yolo_mini;
use mvml_avsim::fastpath::detector_plan;
use mvml_avsim::geometry::Vec2;
use mvml_nn::gemm::{active_kernel, with_kernel, Kernel};
use mvml_nn::models::lenet_mini;
use mvml_nn::quant::{activation_scales, Int8Plan};
use mvml_nn::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes allocated by a thread while its `COUNTING` flag is set.
struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the only addition is a relaxed counter update that
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as this method's caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as this method's caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as this method's caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by 100 runs of `plan` after one warm-up run.
fn bytes_per_100_runs(plan: &mut Int8Plan) -> usize {
    std::hint::black_box(plan.run());
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..100 {
        std::hint::black_box(plan.run());
    }
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn warm_plans_allocate_nothing() {
    let scene = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
    let mut detector = detector_plan(&yolo_mini("yolomini-l", 8, 3), &[scene]);
    detector.input_mut().fill(40);

    let classifier = lenet_mini(16, 43, 7);
    let image = Tensor::from_vec(
        &[1, 1, 16, 16],
        (0..256).map(|i| (i % 17) as f32 / 17.0).collect(),
    );
    let scales = activation_scales(&classifier, std::slice::from_ref(&image));
    let mut lenet = Int8Plan::compile(&classifier, &scales, &[1, 1, 16, 16]);
    let _ = lenet.forward(image.as_slice());

    assert_eq!(CELLS * CELLS, detector.input_mut().len());
    for kernel in [Kernel::Scalar, active_kernel()] {
        with_kernel(kernel, || {
            assert_eq!(
                bytes_per_100_runs(&mut detector),
                0,
                "detector, {}",
                kernel.name()
            );
            assert_eq!(
                bytes_per_100_runs(&mut lenet),
                0,
                "lenet-mini, {}",
                kernel.name()
            );
        });
    }
}
