//! Cross-query admission control for the serving front-end.
//!
//! The engine's `ExecGate` bounds how many *component queries* execute at
//! once; it knows nothing about clients. This layer sits above it and
//! bounds whole *requests*: at most `slots` queries run concurrently, at
//! most `per_client` of them on behalf of any one client, and at most
//! `queue_depth` requests wait. A request past the queue depth is refused
//! immediately with a BUSY frame rather than queued indefinitely — the
//! client learns to back off instead of timing out blind.
//!
//! Scheduling is FIFO with one twist for fairness: a waiter blocked only
//! by its *own* client's quota does not hold up later waiters from other
//! clients. One caller looping heavy `query2` submissions therefore keeps
//! at most `per_client` slots plus one queue position busy; interactive
//! callers overtake it instead of starving behind it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use sr_obs::{lock_recover, MetricsRegistry};

/// Admission knobs. All zeros are normalized to "at least one".
#[derive(Debug, Clone, Copy)]
pub struct AdmitConfig {
    /// Concurrent queries across all clients.
    pub slots: usize,
    /// Concurrent queries per client connection.
    pub per_client: usize,
    /// Waiters allowed beyond the running set; the next one is refused.
    pub queue_depth: usize,
}

impl Default for AdmitConfig {
    fn default() -> Self {
        let slots = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(1);
        AdmitConfig {
            slots,
            per_client: 1.max(slots / 2),
            queue_depth: slots * 4,
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitRejection {
    /// The wait queue is at `queue_depth`.
    QueueFull {
        /// The configured depth that was hit.
        depth: usize,
    },
    /// The controller is shutting down and takes no new work.
    Draining,
}

impl std::fmt::Display for AdmitRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitRejection::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            AdmitRejection::Draining => write!(f, "server is draining"),
        }
    }
}

#[derive(Debug)]
struct Waiter {
    seq: u64,
    client: u64,
}

#[derive(Debug, Default)]
struct State {
    running: usize,
    running_by_client: std::collections::HashMap<u64, usize>,
    queue: VecDeque<Waiter>,
    next_seq: u64,
    draining: bool,
}

/// The admission controller. Cheap to clone via `Arc`.
pub struct Admission {
    cfg: AdmitConfig,
    state: Mutex<State>,
    cv: Condvar,
    metrics: Arc<MetricsRegistry>,
}

/// RAII slot: dropping it releases the slot and wakes waiters.
pub struct AdmitPermit {
    admission: Arc<Admission>,
    client: u64,
}

impl Drop for AdmitPermit {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.admission.state);
        st.running -= 1;
        if let Some(n) = st.running_by_client.get_mut(&self.client) {
            *n -= 1;
            if *n == 0 {
                st.running_by_client.remove(&self.client);
            }
        }
        drop(st);
        self.admission.cv.notify_all();
    }
}

impl Admission {
    /// Build a controller recording into the given metrics registry.
    pub fn new(cfg: AdmitConfig, metrics: Arc<MetricsRegistry>) -> Arc<Admission> {
        let cfg = AdmitConfig {
            slots: cfg.slots.max(1),
            per_client: cfg.per_client.max(1),
            queue_depth: cfg.queue_depth,
        };
        Arc::new(Admission {
            cfg,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            metrics,
        })
    }

    /// The active configuration (after normalization).
    pub fn config(&self) -> AdmitConfig {
        self.cfg
    }

    /// Queries currently holding a slot.
    pub fn in_flight(&self) -> usize {
        lock_recover(&self.state).running
    }

    /// Requests currently parked in the wait queue.
    pub fn queue_len(&self) -> usize {
        lock_recover(&self.state).queue.len()
    }

    /// Per-client slot usage right now: `(client id, running queries)`,
    /// sorted by client id. Only clients holding at least one slot appear.
    pub fn running_by_client(&self) -> Vec<(u64, usize)> {
        let st = lock_recover(&self.state);
        let mut v: Vec<(u64, usize)> = st.running_by_client.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_unstable();
        v
    }

    /// Bump the total rejection counter plus its cause-labeled sibling, so
    /// a BUSY storm is diagnosable from the snapshot alone.
    fn reject(&self, cause: &str) {
        self.metrics.counter("serve.rejected").inc();
        self.metrics
            .counter(&format!("serve.rejected.{cause}"))
            .inc();
    }

    /// Stop admitting: queued waiters and new arrivals are refused with
    /// [`AdmitRejection::Draining`]; running queries keep their slots.
    pub fn drain(&self) {
        lock_recover(&self.state).draining = true;
        self.cv.notify_all();
    }

    /// Whether a waiter may start, given who else is waiting. Eligible
    /// means: a slot is free, the client is under quota, and no *earlier*
    /// waiter that is itself eligible-but-for-ordering is still queued.
    /// Earlier waiters blocked purely by their own client quota are
    /// skipped over — that is the fairness rule.
    fn may_start(&self, st: &State, seq: u64, client: u64) -> bool {
        if st.running >= self.cfg.slots {
            return false;
        }
        if st.running_by_client.get(&client).copied().unwrap_or(0) >= self.cfg.per_client {
            return false;
        }
        for w in &st.queue {
            if w.seq >= seq {
                break;
            }
            let their_running = st.running_by_client.get(&w.client).copied().unwrap_or(0);
            if their_running < self.cfg.per_client {
                // An earlier waiter could also run right now: FIFO wins.
                return false;
            }
        }
        true
    }

    /// Block until admitted or refused. `client` identifies the
    /// connection for quota purposes.
    pub fn admit(self: &Arc<Self>, client: u64) -> Result<AdmitPermit, AdmitRejection> {
        let started = Instant::now();
        let mut st = lock_recover(&self.state);
        if st.draining {
            self.reject("draining");
            return Err(AdmitRejection::Draining);
        }
        let seq = st.next_seq;
        st.next_seq += 1;

        // Fast path: nothing relevant ahead of us.
        if st.queue.is_empty() && self.may_start(&st, seq, client) {
            return Ok(self.grant(st, client, started));
        }
        if st.queue.len() >= self.cfg.queue_depth {
            // A client refused while it is itself sitting at its per-client
            // quota was really stopped by the quota, not by global load.
            let at_quota =
                st.running_by_client.get(&client).copied().unwrap_or(0) >= self.cfg.per_client;
            self.reject(if at_quota { "quota" } else { "queue_full" });
            return Err(AdmitRejection::QueueFull {
                depth: self.cfg.queue_depth,
            });
        }
        st.queue.push_back(Waiter { seq, client });
        loop {
            if st.draining {
                st.queue.retain(|w| w.seq != seq);
                self.reject("draining");
                return Err(AdmitRejection::Draining);
            }
            if self.may_start(&st, seq, client) {
                st.queue.retain(|w| w.seq != seq);
                return Ok(self.grant(st, client, started));
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn grant(
        self: &Arc<Self>,
        mut st: std::sync::MutexGuard<'_, State>,
        client: u64,
        started: Instant,
    ) -> AdmitPermit {
        st.running += 1;
        *st.running_by_client.entry(client).or_insert(0) += 1;
        drop(st);
        self.metrics.counter("serve.admitted").inc();
        let wait_ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        self.metrics
            .histogram("serve.queue_wait_ms")
            .record(wait_ms);
        self.metrics
            .windowed_histogram("serve.queue_wait_ms")
            .record(wait_ms);
        AdmitPermit {
            admission: Arc::clone(self),
            client,
        }
    }
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("cfg", &self.cfg)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn controller(slots: usize, per_client: usize, depth: usize) -> Arc<Admission> {
        Admission::new(
            AdmitConfig {
                slots,
                per_client,
                queue_depth: depth,
            },
            Arc::new(MetricsRegistry::new()),
        )
    }

    #[test]
    fn slots_bound_concurrency() {
        let a = controller(2, 2, 8);
        let p1 = a.admit(1).unwrap();
        let _p2 = a.admit(2).unwrap();
        assert_eq!(a.in_flight(), 2);

        let a2 = Arc::clone(&a);
        let entered = Arc::new(AtomicUsize::new(0));
        let e2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            let p = a2.admit(3).unwrap();
            e2.store(1, Ordering::SeqCst);
            drop(p);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "third query must wait");
        drop(p1);
        h.join().unwrap();
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn queue_full_rejects_immediately() {
        let a = controller(1, 1, 0);
        let _p = a.admit(1).unwrap();
        match a.admit(2) {
            Err(AdmitRejection::QueueFull { depth: 0 }) => {}
            Err(other) => panic!("wrong rejection: {other:?}"),
            Ok(_) => panic!("admitted past the queue depth"),
        }
    }

    #[test]
    fn quota_blocked_client_does_not_starve_others() {
        // Client 1 holds its whole quota; its second request queues first,
        // but client 2 arriving later must overtake it.
        let a = controller(2, 1, 8);
        let p1 = a.admit(1).unwrap();

        let a2 = Arc::clone(&a);
        let heavy = std::thread::spawn(move || {
            // Blocked on per-client quota, not on slots.
            let _p = a2.admit(1).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        // Later arrival from a different client: a slot is free and the
        // earlier waiter is quota-blocked, so this must be admitted now.
        let p2 = a.admit(2).unwrap();
        assert_eq!(a.in_flight(), 2);
        drop(p2);
        drop(p1); // frees client 1's quota; heavy waiter proceeds
        heavy.join().unwrap();
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn drain_refuses_new_and_queued() {
        let a = controller(1, 1, 8);
        let p = a.admit(1).unwrap();
        let a2 = Arc::clone(&a);
        let waiter = std::thread::spawn(move || a2.admit(2).map(|_| ()));
        std::thread::sleep(Duration::from_millis(50));
        a.drain();
        assert_eq!(waiter.join().unwrap(), Err(AdmitRejection::Draining));
        assert!(matches!(a.admit(3), Err(AdmitRejection::Draining)));
        drop(p);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn poisoned_state_lock_keeps_admitting() {
        // A thread that panics while holding the state lock poisons it.
        // Every update of the state completes under the lock, so admission
        // recovers it rather than panicking every later request — a waiter
        // parked on the condvar when the poison lands included.
        let a = controller(1, 1, 8);
        let p = a.admit(1).unwrap();
        let a2 = Arc::clone(&a);
        let waiter = std::thread::spawn(move || a2.admit(2).map(drop));
        // The waiter holds the lock from its enqueue until the condvar
        // releases it, so a visible queue entry means it is parked.
        while a.queue_len() == 0 {
            std::thread::yield_now();
        }
        let a3 = Arc::clone(&a);
        let poisoner = std::thread::spawn(move || {
            let _st = a3.state.lock().unwrap();
            panic!("poison the admission lock");
        });
        assert!(poisoner.join().is_err());
        assert!(a.state.is_poisoned());
        drop(p);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        let p = a.admit(3).unwrap();
        assert_eq!(a.in_flight(), 1);
        drop(p);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn permit_drop_releases_quota() {
        let a = controller(4, 1, 8);
        for _ in 0..3 {
            let p = a.admit(7).unwrap();
            drop(p);
        }
        assert_eq!(a.in_flight(), 0);
    }
}
