//! Accept latency of the daemon, alone in its own test binary: its
//! wall-clock budget must not compete with simulations that other tests
//! in the same binary run on the same cores.

use service::{Client, Server, ServiceConfig};

#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    // The accept loop blocks in `accept`, so a client that connects right
    // after the previous one left is served at once. A polled listener
    // paid up to its poll period per connection: a 5 ms poll made every
    // round trip about 5 ms on a 2-vCPU VM, against ~0.25 ms for the
    // blocking accept.
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
    let mut laps: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let lap = std::time::Instant::now();
            let mut client = Client::connect(addr).expect("connect");
            assert!(client.health().expect("health").ready);
            lap.elapsed()
        })
        .collect();
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join();
    // The median lap, not the total: a noisy host stalls a few laps for
    // tens of milliseconds, but a poll period is paid by every lap.
    laps.sort_unstable();
    let median = laps[laps.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(2),
        "median fresh connect + health round trip took {median:?} (budget 2 ms); \
         slowest {:?}",
        laps[laps.len() - 1]
    );
}
