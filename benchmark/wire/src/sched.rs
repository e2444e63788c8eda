//! The open-loop sender: requests leave on a fixed schedule whether or not
//! earlier ones were answered, and every latency is charged from the tick
//! the request was *due*, not from when a stalled sender got round to it.
//! The clock is a trait so the self-tests can stall it on purpose.

use std::time::{Duration, Instant};

/// Monotone nanoseconds since some origin, and a way to wait for a point
/// on that axis.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&self, target_ns: u64);
}

/// The machine's monotonic clock.
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    pub fn starting_at(origin: Instant) -> Self {
        RealClock { origin }
    }

    /// `instant` on this clock's axis.
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, target_ns: u64) {
        let now = self.now_ns();
        if target_ns > now {
            std::thread::sleep(Duration::from_nanos(target_ns - now));
        }
    }
}

/// Request `i` is due at `start_ns + i * interval_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: u64,
}

impl Schedule {
    pub fn per_second(start_ns: u64, rate: f64) -> Schedule {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Schedule {
            start_ns,
            interval_ns: (1e9 / rate) as u64,
        }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + i as u64 * self.interval_ns
    }
}

/// When one request was due and when it actually left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    pub due_ns: u64,
    pub sent_ns: u64,
}

impl Sent {
    /// How late the generator ran for this request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Latency of a reply that arrived at `arrived_ns`, from the tick the
    /// request was due: a stall ahead of it in the queue is charged to it.
    pub fn latency_ns(&self, arrived_ns: u64) -> u64 {
        arrived_ns.saturating_sub(self.due_ns)
    }
}

/// Sends `count` requests on `schedule`. `send(i)` may block (a full
/// socket, a stalled peer); the next request still keeps its own due time,
/// so the backlog shows up as lateness and as latency, never as a lower
/// offered rate.
pub fn run_open_loop<C: Clock, E>(
    clock: &C,
    schedule: Schedule,
    count: usize,
    mut send: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Sent>, E> {
    let mut sent = Vec::with_capacity(count);
    for i in 0..count {
        let due_ns = schedule.due_ns(i);
        clock.sleep_until_ns(due_ns);
        let sent_ns = clock.now_ns();
        send(i)?;
        sent.push(Sent { due_ns, sent_ns });
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or pushed.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&self, target_ns: u64) {
            self.0.set(self.0.get().max(target_ns));
        }
    }

    #[test]
    fn sends_leave_on_the_tick_when_nothing_stalls() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule::per_second(1_000, 100.0);
        let sent = run_open_loop(&clock, schedule, 3, |_| Ok::<(), ()>(())).unwrap();
        let due: Vec<u64> = sent.iter().map(|s| s.due_ns).collect();
        assert_eq!(due, vec![1_000, 10_001_000, 20_001_000]);
        assert!(sent.iter().all(|s| s.late_ns() == 0));
    }

    #[test]
    fn a_stall_is_charged_from_the_scheduled_tick() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            interval_ns: 10,
        };
        // The first send blocks for 25 ns: requests 1 and 2 were due at 10
        // and 20 but cannot leave before 25.
        let sent = run_open_loop(&clock, schedule, 4, |i| {
            if i == 0 {
                clock.0.set(clock.0.get() + 25);
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(
            sent,
            vec![
                Sent {
                    due_ns: 0,
                    sent_ns: 0
                },
                Sent {
                    due_ns: 10,
                    sent_ns: 25
                },
                Sent {
                    due_ns: 20,
                    sent_ns: 25
                },
                Sent {
                    due_ns: 30,
                    sent_ns: 30
                },
            ]
        );
        assert_eq!(sent[1].late_ns(), 15);
        // Answered at 27: the request waited 17 ns from its tick, though
        // it spent only 2 ns on the wire.
        assert_eq!(sent[1].latency_ns(27), 17);
        assert_eq!(sent[3].late_ns(), 0);
    }

    #[test]
    fn a_send_error_stops_the_loop() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            interval_ns: 1,
        };
        let out = run_open_loop(&clock, schedule, 5, |i| {
            if i == 2 {
                Err("gone")
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err("gone"));
    }
}
