//! Deployment bootstrap: the middleware the paper assumes
//! (Section IV-A: time synchronization, routing).
//!
//! Before any detection can run, a freshly dropped fleet needs
//! synchronized clocks and working multi-hop routes; each buoy reports
//! its own position. This example boots a 6×6 deployment end-to-end: an
//! FTSP-style sync round and a route probe to the sink — reporting the
//! residual error budgets the detection layer then inherits.
//!
//! Run with: `cargo run --release --example deployment_bootstrap`

use rand::rngs::StdRng;
use rand::SeedableRng;

use sid::net::{Network, NodeId, RadioModel, SyncModel, Topology};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let topo = Topology::grid(6, 6, 25.0, 30.0);
    println!(
        "deployed {} buoys on a 6×6 grid at 25 m spacing (radio range 30 m)\n",
        topo.len()
    );

    // --- 1. Time synchronization --------------------------------------
    let sync = SyncModel::ftsp_class();
    let reference = topo.at_grid(3, 3).expect("centre node");
    let offsets = sync.run_round(&topo, reference, &mut rng);
    let worst = offsets.iter().cloned().fold(0.0f64, |m, o| m.max(o.abs()));
    let rms = (offsets.iter().map(|o| o * o).sum::<f64>() / offsets.len() as f64).sqrt();
    println!("time sync from {reference}: rms residual {:.1} ms, worst {:.1} ms", rms * 1e3, worst * 1e3);
    println!("  (speed estimation needs ≪ 1 s: budget is comfortable)\n");

    // --- 2. Routing ----------------------------------------------------
    let mut net: Network<&str> = Network::new(topo.clone(), RadioModel::lossy());
    let sink = NodeId::new(0);
    let mut delivered = 0;
    let mut total_hops = 0u32;
    for id in topo.node_ids() {
        if id != sink && net.route(id, sink, "hello", 0.0, &mut rng) {
            delivered += 1;
        }
    }
    for (_, d) in net.poll(f64::INFINITY) {
        total_hops += d.hops as u32;
    }
    println!(
        "route probe to the sink: {delivered}/{} nodes delivered, {:.1} hops average",
        topo.len() - 1,
        total_hops as f64 / delivered.max(1) as f64
    );
    println!("\nbootstrap complete — the detection layer can start sampling.");
}
