//! The coordinator's join waits on connections, not on a clock: the last
//! replica's `HELLO` ends it at once, a silent connection holds up no
//! replica queued behind it, and `join_timeout` is one budget for the whole
//! join, however many connections stay silent. Each outcome here is a
//! function of who connects and in what order.

use galois_core::manifest::LockstepOutcome;
use galois_core::RunManifest;
use galois_harness::{record_run, App, InputConfig};
use galois_serve::lockstep::{run_replica, Coordinator, LockstepConfig, ReplicaOptions};
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn recording() -> RunManifest {
    let input = InputConfig {
        size: Some(2_000),
        ..InputConfig::default()
    };
    record_run(App::Mis, 1, None, &input).expect("record")
}

fn replica(addr: &str) {
    let opts = ReplicaOptions {
        threads: Some(1),
        ..ReplicaOptions::default()
    };
    let _ = run_replica(addr, opts);
}

/// Copies `from` into `to` until either end closes, then hangs both up.
fn pipe<'s>(s: &'s std::thread::Scope<'s, '_>, from: &TcpStream, to: &TcpStream) {
    let (mut from, mut to) = (from.try_clone().unwrap(), to.try_clone().unwrap());
    s.spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    });
}

/// Runs a session of two expected replicas that one real replica joins,
/// followed by `silent` connections that never send a byte. The replica
/// reaches the coordinator through a relay, so its connection is first in
/// the accept queue before `run` starts. Returns `run`'s error and how long
/// `run` took.
fn one_of_two(join_timeout: Duration, silent: usize) -> (String, Duration) {
    let config = LockstepConfig {
        replicas: 2,
        join_timeout,
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(recording(), config, "127.0.0.1:0").expect("bind");
    let addr = coordinator.addr();
    let front = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let front_addr = front.local_addr().unwrap().to_string();
    std::thread::scope(|s| {
        s.spawn(|| replica(&front_addr));
        let (downstream, _) = front.accept().expect("replica connects");
        let upstream = TcpStream::connect(addr).expect("relay connects");
        let quiet: Vec<TcpStream> = (0..silent)
            .map(|_| TcpStream::connect(addr).expect("silent connect"))
            .collect();
        pipe(s, &downstream, &upstream);
        pipe(s, &upstream, &downstream);
        let start = Instant::now();
        let result = coordinator.run();
        let elapsed = start.elapsed();
        drop(quiet);
        let _ = upstream.shutdown(Shutdown::Both);
        match result {
            Ok(r) => panic!("a session of one replica of two ran: {:?}", r.report),
            Err(e) => (e, elapsed),
        }
    })
}

#[test]
fn the_last_hello_ends_the_join() {
    // An hour-long budget: the session can only end this fast if the join
    // releases its watchdog the moment the second replica is admitted.
    let config = LockstepConfig {
        replicas: 2,
        join_timeout: Duration::from_secs(3600),
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(recording(), config, "127.0.0.1:0").expect("bind");
    let addr = coordinator.addr().to_string();
    let result = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| replica(&addr));
        }
        coordinator.run().expect("wire session")
    });
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.survivors.len(), 2);
    assert_eq!(result.exit_code, 0);
}

#[test]
fn a_missing_replica_ends_the_join_at_its_deadline() {
    let join_timeout = Duration::from_millis(300);
    let (error, _) = one_of_two(join_timeout, 0);
    assert_eq!(
        error,
        format!("only 1 of 2 replicas joined within {join_timeout:?}")
    );
}

#[test]
fn silent_connections_share_one_join_deadline() {
    // Two connections that never speak: each used to get a fresh full
    // budget for its HELLO, so the join took at least twice the timeout.
    let join_timeout = Duration::from_millis(300);
    let (error, elapsed) = one_of_two(join_timeout, 2);
    assert_eq!(
        error,
        format!("only 1 of 2 replicas joined within {join_timeout:?}")
    );
    assert!(
        elapsed < 2 * join_timeout,
        "join took {elapsed:?}, past a second {join_timeout:?}"
    );
}

#[test]
fn a_silent_connection_does_not_hold_up_the_replica_behind_it() {
    let config = LockstepConfig {
        replicas: 1,
        join_timeout: Duration::from_secs(2),
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(recording(), config, "127.0.0.1:0").expect("bind");
    let addr = coordinator.addr().to_string();
    // Connected before the replica starts, so it is first in the backlog and
    // the replica second.
    let mut silent = TcpStream::connect(&addr).expect("silent connect");
    let result = std::thread::scope(|s| {
        s.spawn(|| replica(&addr));
        coordinator.run().expect("wire session")
    });
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.survivors, [0]);
    // The join's end shut the silent connection down: it reads end of file.
    silent
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(silent.read(&mut [0; 1]).expect("shut down, not silent"), 0);
}
