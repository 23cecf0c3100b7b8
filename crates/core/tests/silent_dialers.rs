//! A dialer that connects and says nothing costs the controller no thread:
//! its connection waits on the controller's loop until E2 Setup's own
//! deadline (`RetryPolicy::setup_deadline_ms`), then is closed — and a real
//! agent is served meanwhile.
//!
//! The only test of this binary: it counts the process's threads.

use std::io::Read;
use std::net::TcpStream;
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

/// Threads end a moment after what they did becomes visible: poll, bounded.
fn wait_for_threads(exactly: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != exactly {
        assert!(Instant::now() < deadline, "{what}: {} threads, want {exactly}", thread_count());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn silent_dialers_cost_a_deadline_not_a_thread_for_ever() {
    let mut cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse("127.0.0.1:0").unwrap(),
    );
    cfg.retry.setup_deadline_ms = 300;
    let server = Server::spawn(cfg, vec![]).unwrap();
    let TransportAddr::Tcp(addr) = server.addrs[0].clone() else { unreachable!() };
    let baseline = thread_count();

    let mut silent: Vec<TcpStream> = (0..50).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let node = GlobalE2NodeId::new(Plmn::TEST, E2NodeType::Gnb, 41);
    let agent = Agent::spawn(AgentConfig::new(node, server.addrs[0].clone()), vec![])
        .expect("the real agent sets up among the silent ones");
    // While the silent ones wait for their deadline: the agent's loop is
    // the one thread more.
    wait_for_threads(baseline + 1, "50 silent dialers cost no thread");

    // Each silent connection is closed by the controller: a blocking read
    // (no timeout set — the close must come by itself) sees end-of-stream.
    for s in &mut silent {
        assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "closed at the deadline");
    }
    assert_eq!(server.agents().unwrap().len(), 1, "only the agent was admitted");
    // What is left beside the baseline: the agent's loop.  The 50 silent
    // dialers and the agent's connection cost no thread on either side.
    wait_for_threads(baseline + 1, "the agent's loop and nothing else");
    agent.stop();
    server.stop();
    // Everything this test started is gone, the controller's own loop
    // (counted in the baseline) included.
    wait_for_threads(baseline - 1, "agent and controller loops are gone");
}
