//! The robustness governor: admission control, the degradation
//! ladder, and the per-request watchdog.
//!
//! The three mechanisms compose into one overload story:
//!
//! 1. **Admission** decides *whether* a query runs: a token bucket caps
//!    concurrency, and a cost estimate read off the query scope's
//!    synopses (candidate answer roots × (servers + 1)) turns away
//!    queries whose predicted work would not fit the capacity remaining
//!    at the current pressure. An idle daemon always admits — a too-expensive
//!    estimate must never deny service that could simply run alone.
//! 2. **The ladder** decides *how* an admitted query runs: rising
//!    pressure shrinks the deadline and adds an op budget, sliding
//!    answers from exact through certified-truncated rather than
//!    queueing them into a timeout collapse.
//! 3. **The watchdog** decides when a running query must *stop*: a
//!    hard deadline past the ladder's own, or a client disconnect,
//!    trips the engine's [`CancelToken`] so the worker thread is
//!    reclaimed within an interrupt span instead of finishing work
//!    nobody will read.

use crate::error::RejectReason;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use whirlpool_core::CancelToken;

// ---------------------------------------------------------------------
// Admission.

/// Token-bucket admission with a cost gate.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    capacity_ops: f64,
    inflight: Arc<AtomicUsize>,
}

impl Admission {
    /// `max_inflight` concurrency tokens; `capacity_ops` is the server-
    /// operation spend the daemon considers affordable at zero load.
    pub fn new(max_inflight: usize, capacity_ops: f64) -> Admission {
        Admission {
            max_inflight: max_inflight.max(1),
            capacity_ops: capacity_ops.max(1.0),
            inflight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Requests currently holding a token.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Load as a fraction of the token bucket, in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        (self.inflight() as f64 / self.max_inflight as f64).min(1.0)
    }

    /// Admits or rejects a query whose cost estimate is
    /// `estimated_ops`. On admission the returned [`Permit`] holds one
    /// concurrency token until dropped.
    pub fn try_admit(&self, estimated_ops: f64) -> Result<Permit, RejectReason> {
        // Reserve the token optimistically; every early return below
        // must release it.
        let prior = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prior >= self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(RejectReason::Busy {
                inflight: prior,
                max_inflight: self.max_inflight,
            });
        }
        // The cost gate scales with the *remaining* headroom: a daemon
        // at half pressure only accepts queries fitting half the
        // capacity. `prior == 0` (idle) bypasses the gate entirely.
        let remaining = self.capacity_ops * (1.0 - prior as f64 / self.max_inflight as f64);
        if prior > 0 && estimated_ops > remaining {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(RejectReason::TooExpensive {
                estimated_ops,
                capacity: remaining,
            });
        }
        Ok(Permit {
            inflight: self.inflight.clone(),
        })
    }
}

/// One held concurrency token; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit {
    inflight: Arc<AtomicUsize>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------
// The degradation ladder.

/// The rung an admitted query runs on, chosen from pressure at
/// admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Low pressure: full deadline, no op budget — exact answers.
    Full,
    /// Medium pressure: half deadline plus an op budget; most answers
    /// stay exact, expensive ones come back certified-truncated.
    Tightened,
    /// High pressure: quarter deadline and a small op budget; answers
    /// are anytime prefixes with a score-bound certificate, but every
    /// admitted client still gets one.
    Truncating,
}

impl Rung {
    /// Picks the rung for a given pressure.
    pub fn for_pressure(pressure: f64) -> Rung {
        if pressure < 0.5 {
            Rung::Full
        } else if pressure < 0.85 {
            Rung::Tightened
        } else {
            Rung::Truncating
        }
    }

    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Tightened => "tightened",
            Rung::Truncating => "truncating",
        }
    }

    /// The `(deadline, op budget)` this rung grants, from the
    /// configured full-service deadline and capacity.
    pub fn budgets(&self, base_deadline: Duration, capacity_ops: f64) -> (Duration, Option<u64>) {
        match self {
            Rung::Full => (base_deadline, None),
            Rung::Tightened => (base_deadline / 2, Some(capacity_ops.max(1.0) as u64)),
            Rung::Truncating => (
                base_deadline / 4,
                Some((capacity_ops / 4.0).max(1.0) as u64),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The watchdog.

/// Why the watchdog tripped a request's cancel token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireCause {
    /// The hard deadline passed.
    Deadline,
    /// The client hung up while the query was still running.
    Disconnect,
}

struct WatchEntry {
    id: u64,
    cancel: CancelToken,
    hard_deadline: Instant,
    /// A cloned handle on the client connection, switched to
    /// non-blocking: `peek() == Ok(0)` means the client hung up.
    probe: TcpStream,
    fired: Arc<Mutex<Option<FireCause>>>,
}

/// Monitors in-flight requests and trips their [`CancelToken`]s on
/// hard-deadline overrun or client disconnect. One thread for the whole
/// daemon: it parks while nothing is watched and scans every 2 ms while
/// at least one request is — entries are only ever a handful (bounded
/// by the admission bucket), so a scan is cheap.
pub struct Watchdog {
    entries: Arc<Mutex<Vec<WatchEntry>>>,
    /// Paired with `entries`; signalled by `watch` and `stop`.
    wake: Arc<Condvar>,
    shutdown: Arc<AtomicBool>,
    next_id: AtomicUsize,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Watchdog {
    /// Starts the watchdog thread.
    pub fn start() -> Arc<Watchdog> {
        let dog = Arc::new(Watchdog {
            entries: Arc::new(Mutex::new(Vec::new())),
            wake: Arc::new(Condvar::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            next_id: AtomicUsize::new(0),
            thread: Mutex::new(None),
        });
        let entries = dog.entries.clone();
        let wake = dog.wake.clone();
        let shutdown = dog.shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("serve-watchdog".into())
            .spawn(move || {
                let mut scratch = [0u8; 1];
                let mut entries = entries.lock().unwrap_or_else(|p| p.into_inner());
                while !shutdown.load(Ordering::Acquire) {
                    let now = Instant::now();
                    for e in entries.iter_mut() {
                        if e.cancel.is_cancelled() {
                            continue;
                        }
                        let cause = if now >= e.hard_deadline {
                            Some(FireCause::Deadline)
                        } else {
                            match e.probe.peek(&mut scratch) {
                                // EOF: the client is gone.
                                Ok(0) => Some(FireCause::Disconnect),
                                // Pending request bytes: still there.
                                Ok(_) => None,
                                Err(ref err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                                    None
                                }
                                // Reset/aborted: also gone.
                                Err(_) => Some(FireCause::Disconnect),
                            }
                        };
                        if let Some(cause) = cause {
                            e.cancel.cancel();
                            *e.fired.lock().unwrap_or_else(|p| p.into_inner()) = Some(cause);
                        }
                    }
                    entries = if entries.is_empty() {
                        wake.wait(entries).unwrap_or_else(|p| p.into_inner())
                    } else {
                        let tick = wake.wait_timeout(entries, Duration::from_millis(2));
                        tick.unwrap_or_else(|p| p.into_inner()).0
                    };
                }
            })
            .expect("spawn watchdog thread");
        *dog.thread.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
        dog
    }

    /// Registers a request. The returned guard deregisters on drop;
    /// query it afterwards for whether (and why) the watchdog fired.
    ///
    /// Caveat: the probe is a [`TcpStream::try_clone`], which shares
    /// the underlying file description — switching it non-blocking
    /// switches `conn` too. Callers must do no socket I/O while the
    /// guard lives and call `conn.set_nonblocking(false)` after
    /// dropping it, before writing the response.
    pub fn watch(
        self: &Arc<Watchdog>,
        cancel: CancelToken,
        hard_deadline: Instant,
        conn: &TcpStream,
    ) -> std::io::Result<WatchGuard> {
        let probe = conn.try_clone()?;
        probe.set_nonblocking(true)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
        let fired = Arc::new(Mutex::new(None));
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(WatchEntry {
                id,
                cancel,
                hard_deadline,
                probe,
                fired: fired.clone(),
            });
        self.wake.notify_one();
        Ok(WatchGuard {
            dog: self.clone(),
            id,
            fired,
        })
    }

    /// Number of requests currently watched.
    pub fn watched(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Stops the watchdog thread (idempotent).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Through the lock: the thread sees the flag or is parked already.
        drop(self.entries.lock().unwrap_or_else(|p| p.into_inner()));
        self.wake.notify_all();
        if let Some(handle) = self.thread.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deregisters its request from the [`Watchdog`] on drop.
pub struct WatchGuard {
    dog: Arc<Watchdog>,
    id: u64,
    fired: Arc<Mutex<Option<FireCause>>>,
}

impl WatchGuard {
    /// Did the watchdog trip this request's token, and why?
    pub fn fired(&self) -> Option<FireCause> {
        *self.fired.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.dog
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|e| e.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn token_bucket_admits_up_to_capacity() {
        let adm = Admission::new(2, 1e6);
        let a = adm.try_admit(10.0).unwrap();
        let b = adm.try_admit(10.0).unwrap();
        assert_eq!(adm.inflight(), 2);
        let err = adm.try_admit(10.0).unwrap_err();
        assert!(matches!(err, RejectReason::Busy { .. }), "{err}");
        drop(a);
        assert_eq!(adm.inflight(), 1);
        let _c = adm.try_admit(10.0).unwrap();
        drop(b);
    }

    #[test]
    fn cost_gate_scales_with_pressure_but_idle_always_admits() {
        let adm = Admission::new(4, 1000.0);
        // Idle: even an estimate above capacity is admitted.
        let huge = adm.try_admit(1e9).unwrap();
        // At pressure 1/4, remaining capacity is 750: a 900-op query is
        // turned away, a 700-op one accepted.
        let err = adm.try_admit(900.0).unwrap_err();
        assert!(matches!(err, RejectReason::TooExpensive { .. }), "{err}");
        let ok = adm.try_admit(700.0).unwrap();
        drop(huge);
        drop(ok);
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn ladder_descends_with_pressure() {
        assert_eq!(Rung::for_pressure(0.0), Rung::Full);
        assert_eq!(Rung::for_pressure(0.49), Rung::Full);
        assert_eq!(Rung::for_pressure(0.5), Rung::Tightened);
        assert_eq!(Rung::for_pressure(0.84), Rung::Tightened);
        assert_eq!(Rung::for_pressure(0.85), Rung::Truncating);
        assert_eq!(Rung::for_pressure(1.0), Rung::Truncating);

        let base = Duration::from_millis(800);
        let (d_full, ops_full) = Rung::Full.budgets(base, 1000.0);
        let (d_tight, ops_tight) = Rung::Tightened.budgets(base, 1000.0);
        let (d_trunc, ops_trunc) = Rung::Truncating.budgets(base, 1000.0);
        assert_eq!(d_full, base);
        assert_eq!(ops_full, None);
        assert!(d_tight < d_full && d_trunc < d_tight);
        assert_eq!(ops_tight, Some(1000));
        assert_eq!(ops_trunc, Some(250));
    }

    fn probe_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, server_side)
    }

    #[test]
    fn watchdog_fires_on_hard_deadline() {
        let dog = Watchdog::start();
        let (_client, conn) = probe_pair();
        let token = CancelToken::new();
        let guard = dog
            .watch(
                token.clone(),
                Instant::now() + Duration::from_millis(10),
                &conn,
            )
            .unwrap();
        let start = Instant::now();
        while !token.is_cancelled() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(token.is_cancelled(), "deadline never fired");
        assert_eq!(guard.fired(), Some(FireCause::Deadline));
        drop(guard);
        assert_eq!(dog.watched(), 0, "guard drop deregisters");
        dog.stop();
    }

    /// Left idle, the watchdog parks; the first watch must wake it, or
    /// this disconnect would only be seen at the next unrelated watch.
    #[test]
    fn watchdog_fires_on_client_disconnect() {
        let dog = Watchdog::start();
        std::thread::sleep(Duration::from_millis(100));
        let (client, conn) = probe_pair();
        let token = CancelToken::new();
        let guard = dog
            .watch(
                token.clone(),
                Instant::now() + Duration::from_secs(30),
                &conn,
            )
            .unwrap();
        drop(client); // hang up
        let start = Instant::now();
        while !token.is_cancelled() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let took = start.elapsed();
        assert!(token.is_cancelled(), "disconnect never fired");
        assert!(took < Duration::from_millis(50), "fired after {took:?}");
        assert_eq!(guard.fired(), Some(FireCause::Disconnect));
        dog.stop();
    }
}
