//! The `wdm serve` process and the closed-loop client connections.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use wdm_core::WdmNetwork;

use crate::workload::{Op, Workload};

/// How long a client waits for one reply before counting the frame lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the daemon may take to publish its ready file or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// `GET /metrics` scrapes made after each window, so every traced run
/// measures the scrape path.
const POST_SCRAPES: usize = 16;

/// A running `wdm serve`, killed on drop unless drained.
pub struct Daemon {
    child: Child,
    /// The bound `ip:port`.
    pub addr: String,
    /// Spawn to ready-file publication.
    pub setup: Duration,
}

impl Daemon {
    /// Starts `wdm serve <instance>` on a free loopback port and waits
    /// for its ready file.
    pub fn spawn(wdm: &Path, instance: &Path, sharded: bool, ready: &Path) -> io::Result<Daemon> {
        match fs::remove_file(ready) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut cmd = Command::new(wdm);
        cmd.arg("serve")
            .arg(instance)
            .args(["--listen", "127.0.0.1:0", "--ready-file"])
            .arg(ready)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if sharded {
            cmd.arg("--sharded");
        }
        let started = Instant::now();
        let child = cmd.spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(addr) = fs::read_to_string(ready) {
                daemon.setup = started.elapsed();
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "wdm serve exited early: {status}"
                )));
            }
            if started.elapsed() > PROCESS_TIMEOUT {
                return Err(io::Error::other("wdm serve never became ready"));
            }
            thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `drain` and waits for the process to exit.
    pub fn drain(mut self) -> io::Result<ExitStatus> {
        let mut conn = connect(&self.addr)?;
        conn.write_all(b"{\"op\":\"drain\"}\n")?;
        let mut reply = String::new();
        BufReader::new(&conn).read_line(&mut reply)?;
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            if started.elapsed() > PROCESS_TIMEOUT {
                return Err(io::Error::other("wdm serve did not exit after drain"));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread (and the threads it starts later) to
/// `cpu`.
pub fn pin_this_thread(cpu: usize) -> io::Result<()> {
    let link = fs::read_link("/proc/thread-self")?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or_else(|| io::Error::other("no thread id"))?
        .to_string();
    taskset(&["-p", "-c", &cpu.to_string(), &tid])
}

/// Runs `taskset` with `args`.
fn taskset(args: &[&str]) -> io::Result<()> {
    let status = Command::new("taskset")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!("taskset exited with {status}")))
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(conn)
}

/// What a reply said, reduced to what the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Provision accepted with this id and path cost.
    Accepted {
        /// Connection id.
        id: u64,
        /// Path cost.
        cost: u64,
    },
    /// Provision blocked.
    Blocked,
    /// Release succeeded.
    Released,
    /// Cut applied.
    Cut {
        /// Connections rerouted.
        restored: u64,
        /// Connections lost.
        lost: u64,
    },
    /// Link repaired (or a reported no-op).
    Repaired,
    /// Engine totals.
    Stats(Stats),
    /// Any `ok:false` reply other than `blocked`, by its `error` field.
    Error(ErrorKind),
    /// No reply: disconnect or timeout.
    Lost,
}

/// The typed errors the benchmark tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Release of an id the daemon does not hold.
    UnknownConnection,
    /// Sharded retry budget exhausted.
    Contended,
    /// Admission control rejection.
    Overloaded,
    /// Anything else.
    Other,
}

/// The counters of a `stats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Accepted provisions, restorations included.
    pub accepted: u64,
    /// Blocked provisions, lost restorations included.
    pub blocked: u64,
    /// Released connections, cut teardowns included.
    pub released: u64,
    /// Active connections.
    pub active: u64,
    /// Sharded validation conflicts.
    pub conflicts: u64,
}

/// The unsigned integer after `"key":` in a reply line.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Reduces one reply line to its [`Outcome`] and `seq`.
pub fn parse_reply(op: Op, line: &str) -> (Outcome, Option<u64>) {
    let seq = field(line, "seq");
    let outcome = if line.starts_with(r#"{"ok":true"#) {
        match op {
            Op::Provision { .. } => match (field(line, "id"), field(line, "cost")) {
                (Some(id), Some(cost)) => Outcome::Accepted { id, cost },
                _ => Outcome::Error(ErrorKind::Other),
            },
            Op::Release { .. } => Outcome::Released,
            Op::FailLink { .. } => Outcome::Cut {
                restored: field(line, "restored").unwrap_or(0),
                lost: field(line, "lost").unwrap_or(0),
            },
            Op::RestoreLink { .. } => Outcome::Repaired,
            Op::Stats => Outcome::Stats(Stats {
                accepted: field(line, "accepted").unwrap_or(0),
                blocked: field(line, "blocked").unwrap_or(0),
                released: field(line, "released").unwrap_or(0),
                active: field(line, "active").unwrap_or(0),
                conflicts: field(line, "conflicts").unwrap_or(0),
            }),
            Op::Scrape => Outcome::Error(ErrorKind::Other),
        }
    } else if line.contains(r#""error":"blocked""#) {
        Outcome::Blocked
    } else if line.contains(r#""error":"unknown_connection""#) {
        Outcome::Error(ErrorKind::UnknownConnection)
    } else if line.contains(r#""error":"contended""#) {
        Outcome::Error(ErrorKind::Contended)
    } else if line.contains(r#""error":"overloaded""#) {
        Outcome::Error(ErrorKind::Overloaded)
    } else {
        Outcome::Error(ErrorKind::Other)
    };
    (outcome, seq)
}

/// FNV-1a over a reply line, for the byte-identity check without
/// keeping every reply in memory.
pub fn reply_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One frame as sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// The operation.
    pub op: Op,
    /// Wire `trace_id`, when the run tags its frames.
    pub trace_id: Option<u64>,
    /// `seq` of the reply (engine-touching replies carry one).
    pub seq: Option<u64>,
    /// What the reply said.
    pub outcome: Outcome,
    /// [`reply_hash`] of the reply line.
    pub hash: u64,
    /// Client round trip in ns.
    pub rtt_ns: u64,
    /// Send time, in ns since the timed window opened (0 before it).
    pub at_ns: u64,
    /// Sent inside the timed window (not warm-up, not drain-time).
    pub measured: bool,
}

/// Everything one daemon run produced.
pub struct RunLog {
    /// Every JSON frame of every connection, then the final `stats`.
    pub recs: Vec<Rec>,
    /// Round trips of `GET /metrics` scrapes, in ns.
    pub scrape_ns: Vec<u64>,
    /// Scrapes whose response was not a 200 with the request counter.
    pub bad_scrapes: u64,
    /// Connection ids the clients still hold at drain.
    pub held: u64,
    /// The final `stats` reply.
    pub stats: Stats,
    /// Length of the timed window as run.
    pub window: Duration,
    /// Daemon `VmHWM` at drain, in KiB.
    pub peak_rss_kb: u64,
}

/// One client connection's share of a run.
struct ConnLog {
    recs: Vec<Rec>,
    scrape_ns: Vec<u64>,
    bad_scrapes: u64,
    held: u64,
}

/// Drives `workload` against `daemon`: `warmup`, then the timed
/// `window`; `tag` gives each frame a wire `trace_id`. Drains the
/// daemon at the end.
pub fn run(
    workload: &Workload,
    seed: u64,
    net: &WdmNetwork,
    daemon: Daemon,
    warmup: Duration,
    window: Duration,
    tag: bool,
) -> io::Result<RunLog> {
    let start = Instant::now();
    let measure_from = start + warmup;
    let deadline = measure_from + window;
    let addr = daemon.addr.clone();
    let cpus = &allowed_cpus();
    // The daemon gets the CPUs no client thread takes, when there are
    // any; otherwise the scheduler places its threads.
    if cpus.len() > workload.connections {
        let spare: Vec<String> = cpus[workload.connections..]
            .iter()
            .map(ToString::to_string)
            .collect();
        let pid = daemon.child.id().to_string();
        if let Err(e) = taskset(&["-a", "-p", "-c", &spare.join(","), &pid]) {
            eprintln!("warning: daemon not pinned: {e}");
        }
    }
    let logs: Vec<io::Result<ConnLog>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.connections)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    drive(
                        workload,
                        seed,
                        net,
                        c,
                        addr,
                        measure_from,
                        deadline,
                        tag,
                        cpus,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let window = Instant::now()
        .saturating_duration_since(measure_from)
        .min(window);
    let mut log = RunLog {
        recs: Vec::new(),
        scrape_ns: Vec::new(),
        bad_scrapes: 0,
        held: 0,
        stats: Stats::default(),
        window,
        peak_rss_kb: 0,
    };
    for conn in logs {
        let conn = conn?;
        log.recs.extend(conn.recs);
        log.scrape_ns.extend(conn.scrape_ns);
        log.bad_scrapes += conn.bad_scrapes;
        log.held += conn.held;
    }
    for _ in 0..POST_SCRAPES {
        match scrape(&addr) {
            Ok(ns) => log.scrape_ns.push(ns),
            Err(_) => log.bad_scrapes += 1,
        }
    }
    let mut conn = BufReader::new(connect(&addr)?);
    // Sent after the window, so it is never a measured frame.
    let stats = exchange(&mut conn, Op::Stats, None, deadline + window);
    if let Outcome::Stats(s) = stats.outcome {
        log.stats = s;
    }
    log.recs.push(stats);
    drop(conn);
    log.peak_rss_kb = daemon.peak_rss_kb()?;
    let status = daemon.drain()?;
    if !status.success() {
        return Err(io::Error::other(format!("wdm serve exited with {status}")));
    }
    Ok(log)
}

/// One connection's closed loop.
#[allow(clippy::too_many_arguments)]
fn drive(
    workload: &Workload,
    seed: u64,
    net: &WdmNetwork,
    c: usize,
    addr: &str,
    measure_from: Instant,
    deadline: Instant,
    tag: bool,
    cpus: &[usize],
) -> io::Result<ConnLog> {
    // One client thread per CPU: the scheduler cannot then move the run
    // between thread placements whose round trips differ by half.
    if cpus.len() >= 2 {
        let cpu = cpus[c % cpus.len()];
        if let Err(e) = pin_this_thread(cpu) {
            eprintln!("warning: connection {c} not pinned to cpu {cpu}: {e}");
        }
    }
    let mut traffic = workload.traffic(seed, c, net);
    let mut conn = BufReader::new(connect(addr)?);
    let mut log = ConnLog {
        recs: Vec::with_capacity(1 << 18),
        scrape_ns: Vec::new(),
        bad_scrapes: 0,
        held: 0,
    };
    // Trace ids are unique across connections.
    let mut next_tag = (c as u64) << 40;
    while Instant::now() < deadline {
        let op = traffic.next_op();
        if op == Op::Scrape {
            match scrape(addr) {
                Ok(ns) => log.scrape_ns.push(ns),
                Err(_) => log.bad_scrapes += 1,
            }
            continue;
        }
        next_tag += 1;
        let rec = exchange(&mut conn, op, tag.then_some(next_tag), measure_from);
        if let Outcome::Accepted { id, .. } = rec.outcome {
            traffic.accepted(id);
        }
        let lost = rec.outcome == Outcome::Lost;
        log.recs.push(rec);
        if lost {
            break;
        }
    }
    log.held = traffic.held() as u64;
    Ok(log)
}

/// Sends one frame and reads its reply line.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    op: Op,
    trace_id: Option<u64>,
    measure_from: Instant,
) -> Rec {
    let mut frame = String::with_capacity(64);
    op.render(trace_id, &mut frame);
    let mut reply = String::with_capacity(128);
    let started = Instant::now();
    let sent = conn.get_mut().write_all(frame.as_bytes());
    let read = sent.and_then(|()| conn.read_line(&mut reply));
    let rtt_ns = started.elapsed().as_nanos() as u64;
    let measured = started >= measure_from;
    let at_ns = started.saturating_duration_since(measure_from).as_nanos() as u64;
    let line = reply.trim_end_matches('\n');
    let (outcome, seq) = match read {
        Ok(n) if n > 0 && reply.ends_with('\n') => parse_reply(op, line),
        _ => (Outcome::Lost, None),
    };
    Rec {
        op,
        trace_id,
        seq,
        outcome,
        hash: reply_hash(line.as_bytes()),
        rtt_ns,
        at_ns,
        measured,
    }
}

/// One `GET /metrics` round trip on a fresh connection, in ns.
fn scrape(addr: &str) -> io::Result<u64> {
    let started = Instant::now();
    let mut conn = connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.1\n")?;
    let mut body = String::new();
    conn.read_to_string(&mut body)?;
    let ns = started.elapsed().as_nanos() as u64;
    if body.starts_with("HTTP/1.1 200") && body.contains("wdm_serve_requests_total") {
        Ok(ns)
    } else {
        Err(io::Error::other("bad /metrics response"))
    }
}

/// A per-process scratch directory inside `work`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<work>/<pid>`.
    pub fn new(work: &Path) -> io::Result<WorkDir> {
        let dir = work.join(std::process::id().to_string());
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_reduce_to_outcomes() {
        let p = Op::Provision { s: 0, t: 1 };
        assert_eq!(
            parse_reply(
                p,
                r#"{"ok":true,"op":"provision","seq":7,"id":3,"cost":41,"hops":2,"conversions":0}"#
            ),
            (Outcome::Accepted { id: 3, cost: 41 }, Some(7))
        );
        assert_eq!(
            parse_reply(
                p,
                r#"{"ok":false,"op":"provision","seq":8,"error":"blocked","cause":"capacity"}"#
            ),
            (Outcome::Blocked, Some(8))
        );
        assert_eq!(
            parse_reply(
                Op::Release { id: 9 },
                r#"{"ok":false,"op":"release","seq":9,"error":"unknown_connection","id":9}"#
            ),
            (Outcome::Error(ErrorKind::UnknownConnection), Some(9))
        );
        assert_eq!(
            parse_reply(
                Op::FailLink { link: 2 },
                r#"{"ok":true,"op":"fail-link","seq":10,"link":2,"restored":4,"lost":1}"#
            ),
            (
                Outcome::Cut {
                    restored: 4,
                    lost: 1
                },
                Some(10)
            )
        );
        assert_eq!(
            parse_reply(p, r#"{"ok":false,"error":"overloaded"}"#),
            (Outcome::Error(ErrorKind::Overloaded), None)
        );
        let (stats, _) = parse_reply(
            Op::Stats,
            r#"{"ok":true,"op":"stats","seq":11,"accepted":5,"blocked":2,"blocked_no_path":0,"blocked_capacity":2,"released":3,"active":2,"utilization":0.1,"conflicts":6,"trace_records":0,"trace_dropped":0}"#,
        );
        assert_eq!(
            stats,
            Outcome::Stats(Stats {
                accepted: 5,
                blocked: 2,
                released: 3,
                active: 2,
                conflicts: 6
            })
        );
    }
}
