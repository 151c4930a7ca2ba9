//! Build a topology the paper never ran: a 4-hop chain with a custom MAC
//! config per node, assembled from the library pieces directly (no
//! scenario preset). Shows how a downstream user composes Topology,
//! World, MacConfig, and the apps by hand.
//!
//! Run with: `cargo run --release --example topology_playground`

use hydra_agg::app::{FileReceiver, FileSender};
use hydra_agg::mac::{AggPolicy, MacConfig, Policy};
use hydra_agg::netsim::{FlowOutcome, FlowSpec, FlowTraffic, RunReport, Topology, World};
use hydra_agg::phy::{ChannelStack, PhyProfile, Rate};
use hydra_agg::sim::{Duration, Instant};
use hydra_agg::tcp::TcpConfig;
use hydra_agg::wire::{Endpoint, Ipv4Addr};

fn main() {
    let hops = 4;
    let topo = Topology::linear(hops);
    let profile = PhyProfile::hydra();
    let channel = ChannelStack::hydra(&profile);

    // Endpoints run plain BA; interior relays additionally delay for
    // deeper aggregation (a DBA variant the paper suggests for relays).
    let world_cfg = |node: usize| {
        let mut cfg = MacConfig::hydra(Rate::R2_60);
        cfg.agg = AggPolicy::new(if node > 0 && node < hops { Policy::Dba } else { Policy::Ba });
        cfg
    };
    let mut world = World::new(&topo, profile, channel, 42, world_cfg);

    // Install a 0.2 MB transfer from node 0 to node 4 by hand.
    let file = 200 * 1024;
    let tcp_cfg = TcpConfig::hydra_paper();
    let listen = world.nodes[hops].tcp.listen(tcp_cfg.clone(), 5001, 900);
    world.nodes[hops].apps.file_rx.push((FileReceiver::new(file), listen));
    let sock = world.nodes[0].tcp.connect(
        tcp_cfg,
        6001,
        Endpoint::new(Ipv4Addr::from_node_id(hops as u16), 5001),
        100,
    );
    world.nodes[0].apps.file_tx.push((FileSender::new(file), sock));

    // Run to completion.
    world.start();
    let deadline = Instant::ZERO + Duration::from_secs(600);
    let done = world.run_until_transfers_complete(deadline);
    assert!(done, "transfer stuck");

    let rx = &world.nodes[hops].apps.file_rx[0].0;
    // The rate a scenario run reports for this flow: file bits over the
    // completion time.
    let flow = FlowSpec { src: 0, dst: hops, port: 5001, traffic: FlowTraffic::FileTransfer { bytes: file } };
    let thr = FlowOutcome::new(flow, rx.received as u64, rx.completed_at, Duration::ZERO).bps / 1e6;
    println!("4-hop chain, BA endpoints + DBA relays at 2.6 Mbps");
    println!("0.2 MB transferred intact: {}", rx.is_complete());
    println!("end-to-end throughput: {thr:.3} Mbps\n");
    println!("per-node view:");
    for n in &RunReport::collect(&world, Instant::ZERO).nodes {
        println!(
            "  node {}: {} frames, avg {:.0} B, {:.2} subframes/frame, {} ACKs classified",
            n.node,
            n.tx_data_frames,
            n.avg_frame_size(),
            n.avg_subframes,
            n.acks_classified
        );
    }
    println!("\nNote how aggregation deepens toward the middle of the chain — the");
    println!("same effect the paper measures between its 2-hop and 3-hop relays");
    println!("(Table 8).");
}
