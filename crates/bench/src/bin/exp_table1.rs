//! Table 1: second-study websites probed (the socket-policy scan's
//! survivors), plus a live verification that every catalog host actually
//! serves a permissive policy in the simulator.
use tlsfoe_core::hosts::HostCatalog;
use tlsfoe_core::tables;
use tlsfoe_netsim::policy::{PolicyClient, PolicyFetchResult};
use tlsfoe_netsim::{Ipv4, Network, NetworkConfig, PolicyServer, Shared};

fn main() {
    print!("{}", tlsfoe_bench::banner("Table 1"));
    print!("{}", tables::table1());

    // Verify the policy-scan property the paper selected hosts by.
    let catalog = HostCatalog::study2();
    let mut permissive = 0;
    for host in catalog.hosts {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.listen(host.ip, 80, Box::new(|_| Box::new(PolicyServer::permissive())));
        let result = Shared::new(PolicyFetchResult::Pending);
        net.dial_from(
            Ipv4([11, 0, 0, 1]),
            host.ip,
            80,
            Box::new(PolicyClient::new(result.clone())),
        )
        .expect("policy server listening");
        net.run().expect("policy fetch cannot livelock");
        if *result.lock() == PolicyFetchResult::Permissive {
            permissive += 1;
        }
    }
    println!(
        "\npolicy scan: {permissive}/{} catalog hosts serve a permissive socket policy",
        catalog.hosts.len()
    );
}
