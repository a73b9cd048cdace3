//! Traffic drivers: one client thread per connection, at most two.
//!
//! An open-loop connection sends on a fixed schedule and times each
//! request from when it was due, so a stall also charges the requests
//! queued behind it; how late each send went out is kept for the lag
//! metrics. A closed-loop connection sends its next request as soon as
//! the previous answer arrives.

use crate::stats::CpuSample;
use cardest_server::client::HttpClient;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One connection's traffic.
pub struct Stream<'a> {
    pub path: &'static str,
    pub bodies: &'a [String],
    /// Bodies are sent in this order, cycling.
    pub order: Vec<usize>,
    /// `Some(gap)`: open loop, one send every `gap`; `None`: closed loop.
    pub interval: Option<Duration>,
    /// Offset of the first send from the start (open loop).
    pub phase: Duration,
    /// Stop after this many sends even if time remains.
    pub max_sends: usize,
}

/// One request as the client saw it; times are ns since the run start.
#[derive(Debug, Clone)]
pub struct Sent {
    pub body: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status, or 0 when the transport failed.
    pub status: u16,
    pub response: Vec<u8>,
}

impl Sent {
    /// Latency from the due time (equal to the send time in a closed loop).
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Waits for `due_ns` by yielding instead of sleeping. On a virtual
/// machine an idle vCPU halts, and waking it again costs the hypervisor's
/// scheduling delay (it shows as steal time), which would be charged to
/// the server as latency. A yielding client keeps both vCPUs awake while
/// still giving way at once to any server thread that becomes runnable.
fn wait_until(due_ns: u64, now_ns: &impl Fn() -> u64) {
    while now_ns() < due_ns {
        std::thread::yield_now();
    }
}

fn run_stream(addr: SocketAddr, s: &Stream<'_>, start: Instant, dur: Duration) -> Vec<Sent> {
    let mut out = Vec::new();
    let Ok(mut client) = HttpClient::connect(addr) else {
        return out;
    };
    let end_ns = dur.as_nanos() as u64;
    let now_ns = || start.elapsed().as_nanos() as u64;
    for (i, &body) in s.order.iter().cycle().enumerate() {
        if i >= s.max_sends {
            break;
        }
        let due_ns = match s.interval {
            Some(gap) => {
                let due = (s.phase + gap * i as u32).as_nanos() as u64;
                if due >= end_ns {
                    break;
                }
                wait_until(due, &now_ns);
                due
            }
            None => {
                let now = now_ns();
                if now >= end_ns {
                    break;
                }
                now
            }
        };
        let sent_ns = now_ns();
        let (status, response) = match client.post_json(s.path, &s.bodies[body]) {
            Ok(r) => (r.status, r.body),
            Err(_) => (0, Vec::new()),
        };
        out.push(Sent {
            body,
            due_ns,
            sent_ns,
            done_ns: now_ns(),
            status,
            response,
        });
        if status == 0 {
            // The connection is gone; count what was sent and stop.
            break;
        }
    }
    out
}

/// Reads the machine-wide CPU line of `/proc/stat`.
fn read_cpu(t_ns: u64) -> Option<CpuSample> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some(CpuSample {
        t_ns,
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Drives every stream for `dur`, each on its own connection and thread,
/// and returns what each one sent. All threads are joined on return.
/// Meanwhile the calling thread reads the machine's CPU counters every
/// 100 ms, so windows the hypervisor stole time from can be told apart.
pub fn drive(
    addr: SocketAddr,
    streams: &[Stream<'_>],
    dur: Duration,
) -> (Vec<Vec<Sent>>, Vec<CpuSample>) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|s| scope.spawn(move || run_stream(addr, s, start, dur)))
            .collect();
        let mut cpu = Vec::new();
        loop {
            let t = start.elapsed();
            cpu.extend(read_cpu(t.as_nanos() as u64));
            if t >= dur || handles.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(100).min(dur - t));
        }
        let sent = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        (sent, cpu)
    })
}
