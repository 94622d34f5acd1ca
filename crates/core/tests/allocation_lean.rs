//! Allocation-count regression tests for interned path discovery.
//!
//! A counting `#[global_allocator]` wraps the system allocator so the test
//! can assert *relative* allocation behavior (absolute counts would be
//! brittle across std versions):
//!
//! * returning interned paths allocates strictly less than additionally
//!   materializing owned `Vec<String>` names (the pre-interning shape),
//! * a warm [`DiscoveryWorkspace`] makes repeat queries cheaper than the
//!   first (scratch buffers are reused at their high-water mark).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use upsim_core::discovery::{discover_with_workspace, DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::infrastructure::{DeviceClassSpec, Infrastructure};
use upsim_core::mapping::ServiceMappingPair;

/// Counts `alloc`/`realloc` calls; `dealloc` is pass-through.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation count of one closure run.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

/// A small redundant fabric: two parallel middle switches between a client
/// tier and a server, so discovery finds several multi-hop paths.
fn redundant_fabric() -> Infrastructure {
    let mut infra = Infrastructure::new("fabric");
    infra
        .define_device_class(DeviceClassSpec::client("Comp", 3_000.0, 24.0))
        .unwrap();
    infra
        .define_device_class(DeviceClassSpec::switch("Switch", 183_498.0, 0.5))
        .unwrap();
    infra
        .define_device_class(DeviceClassSpec::server("Server", 60_000.0, 0.1))
        .unwrap();
    infra.add_device("client", "Comp").unwrap();
    infra.add_device("server", "Server").unwrap();
    for i in 0..4 {
        let sw = format!("sw{i}");
        infra.add_device(&sw, "Switch").unwrap();
        infra.connect("client", &sw).unwrap();
        infra.connect(&sw, "server").unwrap();
    }
    infra
}

/// One test body (not several) so concurrent test threads cannot perturb
/// each other's counter windows.
#[test]
fn interned_discovery_allocates_less_than_name_materialization() {
    let infra = redundant_fabric();
    let view = infra.to_interned_graph();
    let pair = ServiceMappingPair::new("request", "client", "server");
    let options = DiscoveryOptions::default();

    // Warm the workspace so both measured calls run at the high-water mark.
    let mut workspace = DiscoveryWorkspace::default();
    let (cold, first) =
        allocations_of(|| discover_with_workspace(&view, &pair, options, &mut workspace).unwrap());
    assert_eq!(first.len(), 4, "fabric has one path per middle switch");

    let (interned_only, discovered) =
        allocations_of(|| discover_with_workspace(&view, &pair, options, &mut workspace).unwrap());
    let (with_names, names) = allocations_of(|| {
        let d = discover_with_workspace(&view, &pair, options, &mut workspace).unwrap();
        let names = d.named_paths();
        (d, names)
    });
    assert_eq!(names.1.len(), 4);

    // The interned result shares the name table instead of cloning one
    // `Vec<String>` per path: materializing names must cost extra
    // allocations on top of the same discovery.
    assert!(
        interned_only < with_names,
        "interned discovery ({interned_only} allocs) must beat name \
         materialization ({with_names} allocs)"
    );
    // Reused scratch: the warm call allocates strictly less than the cold
    // one (which had to grow the DFS stacks and the prune mask).
    assert!(
        interned_only < cold,
        "warm workspace ({interned_only} allocs) must beat the cold first \
         call ({cold} allocs)"
    );
    drop(discovered);
}
