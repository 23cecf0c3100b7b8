//! Threads = loops + a constant: each shard of a controller and each agent
//! costs its one loop thread, and a TCP connection costs none on either
//! side.
//!
//! The only test of this binary: it counts the process's threads.

use std::time::{Duration, Instant};

use flexric::agent::{Agent, AgentConfig};
use flexric::server::{Server, ServerConfig};
use flexric_e2ap::{E2NodeType, GlobalE2NodeId, GlobalRicId, Plmn};
use flexric_transport::TransportAddr;

/// Threads of this process right now (Linux: `/proc/self/status`).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a number")
}

/// A dial's thread ends a moment after its connection is handed over:
/// poll, bounded.
fn wait_for_threads(exactly: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != exactly {
        assert!(Instant::now() < deadline, "{what}: {} threads, want {exactly}", thread_count());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_thread_per_loop_and_none_per_connection() {
    const SHARDS: usize = 4;
    const AGENTS: u64 = 50;
    let before = thread_count();
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    cfg.shards = SHARDS;
    let server = Server::spawn_sharded(cfg, |_| vec![]).unwrap();
    wait_for_threads(before + SHARDS, "a loop per shard");

    let agents: Vec<_> = (0..AGENTS)
        .map(|i| {
            let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 100 + i);
            Agent::spawn(AgentConfig::new(node, server.addrs[0].clone()), vec![]).expect("setup")
        })
        .collect();
    assert_eq!(server.agents().unwrap().len(), AGENTS as usize);
    wait_for_threads(before + SHARDS + AGENTS as usize, "a loop per agent, none per connection");

    for agent in &agents {
        agent.stop();
    }
    wait_for_threads(before + SHARDS, "the agents' loops are gone");
    server.stop();
    wait_for_threads(before, "the shards' loops are gone");
}
