//! Thread-leak regression for the live transport.
//!
//! Every connection is a pair of tasks on its endpoint's fixed-size
//! runtime, so reconnect churn must not grow the thread count, and dropping
//! an endpoint must join its runtime's threads. (The transport once served
//! each connection with a reader and a writer OS thread, and leaked them
//! while reconnects churned.)
//!
//! The test lives in its own file so the measured process contains only
//! this scenario's threads.

use std::time::{Duration, Instant};

use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::{handshake, ChannelConfig, SwitchEndpoint};
use ofproto::types::DatapathId;

/// This process's live threads, from `/proc/self/task`; `None` where that
/// is unavailable (non-Linux or restricted procfs).
fn live_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

fn endpoint() -> SwitchEndpoint {
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    SwitchEndpoint::spawn(switch, Vec::new(), ChannelConfig::default()).unwrap()
}

/// Allowance for threads the test harness itself starts or reaps while we
/// measure; a leak of even one thread per session or endpoint dwarfs it.
const SLACK: usize = 4;

#[test]
fn reconnect_and_respawn_churn_leaks_no_threads() {
    let Some(before) = live_threads() else {
        eprintln!("skipping: /proc/self/task unavailable");
        return;
    };

    // 100 fake-controller sessions against one endpoint, one after another.
    let switch = endpoint();
    let addr = switch.switch_addr();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(1)
        .build()
        .unwrap();
    rt.block_on(async {
        for _ in 0..100 {
            let mut stream = tokio::net::TcpStream::connect(addr).await.unwrap();
            handshake::initiate(&mut stream, &ChannelConfig::default())
                .await
                .unwrap();
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while switch.counters().reconnects < 99 {
        assert!(Instant::now() < deadline, "{:?}", switch.counters());
        std::thread::sleep(Duration::from_millis(5));
    }
    let during = live_threads().unwrap();
    // Two runtimes of one worker and one reactor thread each.
    assert!(
        during <= before + 4 + SLACK,
        "{before} threads before 100 reconnects, {during} after"
    );
    drop(rt);
    drop(switch);

    // 20 endpoints spawned and dropped one after another.
    for _ in 0..20 {
        drop(endpoint());
    }
    let after = live_threads().unwrap();
    assert!(
        after <= before + SLACK,
        "thread leak: {before} threads before churn, {after} after"
    );
}
