//! Accept latency of the daemon, alone in its own test binary: its
//! wall-clock budget must not compete with simulations that other tests
//! in the same binary run on the same cores.

use service::{Client, Server, ServiceConfig};

#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    // The accept loop blocks in `accept`, so a client that connects right
    // after the previous one left is served at once. A polled listener
    // paid up to its poll period per connection: 50 round trips took
    // ~250 ms on a 2-vCPU VM, against ~3 ms for the blocking accept.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();
    let started = std::time::Instant::now();
    for _ in 0..50 {
        let mut client = Client::connect(addr).expect("connect");
        assert!(client.health().expect("health").ready);
    }
    let elapsed = started.elapsed();
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "50 fresh connect + health round trips took {elapsed:?} (budget 100 ms)"
    );
}
