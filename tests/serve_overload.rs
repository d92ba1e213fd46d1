//! Overload soak for the query daemon, end to end over real sockets.
//!
//! The properties under test are the daemon's robustness contract:
//!
//! * **No hang**: every client request resolves within its socket
//!   timeout, even at many times the admission capacity.
//! * **Honest shedding**: overload surfaces as HTTP 429 (admission or
//!   queue shed), never as silent queueing into timeout collapse.
//! * **Certified degradation**: every 200 is either exact or a
//!   truncated answer carrying its score-bound certificate.
//! * **Conservation**: at quiescence, `admitted = exact + degraded +
//!   timed_out` — every admitted request settled exactly once.
//! * **No thread leak**: the worker pool is fixed; 100 queries whose
//!   clients hang up mid-evaluation reclaim their workers via the
//!   watchdog's cancel tokens, and the daemon's thread count and
//!   inflight gauge return to baseline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use whirlpool_serve::{start, DocState, Json, Registry, ServeConfig};
use whirlpool_xmark::{generate, GeneratorConfig};

fn registry(items: usize) -> Registry {
    let mut r = Registry::new();
    r.insert(DocState::new(
        "xmark",
        generate(&GeneratorConfig::items(items)),
    ));
    r
}

/// One blocking request; panics on transport-level hangs (socket
/// timeout) so a stuck daemon fails the test instead of wedging it.
fn request(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    conn.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_query(addr: SocketAddr, json: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, format!("GET {path} HTTP/1.1\r\n\r\n"))
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    Json::parse(&body)
        .expect("metrics json")
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metric {name} missing in {body}"))
}

/// This process's thread count (Linux `/proc`).
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Waits until every one of the `sent` query connections this test
/// opened has been accounted for — admitted, rejected, shed or refused
/// as a bad request — and no admitted query is in flight (or fails
/// loudly).
///
/// `inflight == 0` alone is not quiescence: it counts admitted queries
/// only, so it reads 0 while a worker has popped a connection and is
/// still parsing it or building its context, before admission. A probe
/// answered by another worker in that window would let the test read
/// `admitted` before that query was admitted and its outcome after.
///
/// The daemon's `shed` also counts this test's own probes that a full
/// queue turned away at the door: `shed_probes` tallies those across
/// calls.
fn await_quiescence(addr: SocketAddr, sent: u64, shed_probes: &mut u64, within: Duration) {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, "/metrics");
        // A 429 means the probe itself was shed — the daemon is still
        // draining its queue, which is just another form of "not yet".
        if status == 200 {
            let m = Json::parse(&body).unwrap();
            let field = |name: &str| m.get(name).and_then(Json::as_u64).unwrap();
            let accounted = ["admitted", "rejected", "shed", "bad_requests", "not_found"]
                .map(field)
                .iter()
                .sum::<u64>();
            // The counters are read before `inflight`, and a query holds
            // its admission token from before it is counted admitted
            // until after its outcome is: so this snapshot settles
            // every accounted query.
            if accounted == sent + *shed_probes && field("inflight") == 0 {
                return;
            }
        } else {
            assert_eq!(status, 429, "unhealthy daemon: {status} {body}");
            *shed_probes += 1;
        }
        assert!(
            start.elapsed() < within,
            "daemon never quiesced within {within:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text]";

/// Serializes the tests in this file: the thread-leak assertion counts
/// process-wide threads, so another test's daemon must not be starting
/// or stopping its pool concurrently.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn overload_soak_sheds_honestly_and_conserves_outcomes() {
    let _gate = exclusive();
    let config = ServeConfig {
        workers: 3,
        queue_depth: 3,
        max_inflight: 3,
        base_deadline: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let handle = start(config, registry(40)).expect("daemon starts");
    let addr = handle.addr();

    // Phase 1: ~6x overload. 18 concurrent clients, 3 requests each,
    // against 3 workers. Every request must resolve; overload shows up
    // as 429s, and every 200 is exact or carries its certificate.
    let clients: Vec<_> = (0..18)
        .map(|c| {
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for _ in 0..3 {
                    // Artificial per-op cost so 3 workers cannot simply
                    // race through 54 requests without ever overlapping.
                    let body = format!("{{\"query\": \"{QUERY}\", \"k\": 5, \"op_cost_us\": 200}}");
                    let (status, response) = post_query(addr, &body);
                    match status {
                        200 => {
                            let v = Json::parse(&response)
                                .unwrap_or_else(|e| panic!("client {c}: bad json ({e})"));
                            let completeness =
                                v.get("completeness").and_then(Json::as_str).unwrap();
                            match completeness {
                                "exact" => {}
                                "truncated" => {
                                    assert!(
                                        v.get("score_bound").and_then(Json::as_f64).is_some(),
                                        "truncated without a certificate: {response}"
                                    );
                                }
                                other => panic!("unknown completeness {other:?}"),
                            }
                        }
                        429 | 504 => {}
                        other => panic!("client {c}: unexpected status {other}: {response}"),
                    }
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();
    let statuses: Vec<u16> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    assert_eq!(statuses.len(), 54, "every request resolved");
    let rejected = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    assert!(served > 0, "overload must not starve everyone out");
    assert!(
        rejected > 0,
        "6x overload against a 3-token bucket must shed: {statuses:?}"
    );

    // Conservation at quiescence: every admitted request settled into
    // exactly one outcome class.
    await_quiescence(addr, 54, &mut 0, Duration::from_secs(10));
    let admitted = metric(addr, "admitted");
    let settled = metric(addr, "exact") + metric(addr, "degraded") + metric(addr, "timed_out");
    assert_eq!(
        admitted, settled,
        "conservation law: admitted = exact + degraded + timed_out"
    );
    assert_eq!(
        metric(addr, "rejected") + metric(addr, "shed"),
        rejected as u64
    );

    handle.shutdown();
}

#[test]
fn hundred_cancelled_queries_leak_no_threads() {
    let _gate = exclusive();
    // Long deadline so disconnects — not the ladder — are what stop
    // these queries; per-op cost makes each query take far longer than
    // the clients stick around.
    let config = ServeConfig {
        workers: 4,
        queue_depth: 8,
        max_inflight: 4,
        base_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = start(config, registry(30)).expect("daemon starts");
    let addr = handle.addr();

    // Baseline after one served request (lazy init all settled).
    let (status, _) = post_query(addr, &format!("{{\"query\": \"{QUERY}\", \"k\": 3}}"));
    assert_eq!(status, 200);
    let threads_before = thread_count();

    let mut shed_probes = 0;
    for wave in 1..=10 {
        let clients: Vec<_> = (0..10)
            .map(|_| {
                std::thread::spawn(move || {
                    let body =
                        format!("{{\"query\": \"{QUERY}\", \"k\": 5, \"op_cost_us\": 2000}}");
                    let raw = format!(
                        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.write_all(raw.as_bytes()).expect("send");
                    // Hang up without reading the response: the server
                    // is now evaluating for nobody.
                    drop(conn);
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        // Let the watchdog reclaim the wave before the next one so the
        // abandoned queries exercise cancellation, not the 429 path.
        await_quiescence(
            addr,
            1 + 10 * wave,
            &mut shed_probes,
            Duration::from_secs(15),
        );
    }

    // The daemon is still healthy, its pool intact, and a live client
    // still gets a prompt, well-formed answer.
    assert_eq!(
        thread_count(),
        threads_before,
        "cancelled queries must not leak threads"
    );
    let start_t = Instant::now();
    let (status, body) = post_query(addr, &format!("{{\"query\": \"{QUERY}\", \"k\": 3}}"));
    assert_eq!(status, 200, "{body}");
    assert!(
        start_t.elapsed() < Duration::from_secs(10),
        "daemon sluggish after the cancellation storm"
    );
    // The abandoned queries were admitted and settled (conservation
    // still holds), mostly as watchdog-reclaimed timeouts.
    let admitted = metric(addr, "admitted");
    let settled = metric(addr, "exact") + metric(addr, "degraded") + metric(addr, "timed_out");
    assert_eq!(admitted, settled);
    assert!(
        metric(addr, "timed_out") > 0,
        "disconnect cancellation never fired"
    );

    handle.shutdown();
}
