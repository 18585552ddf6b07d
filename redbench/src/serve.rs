//! `serve_mixed`: an in-process `serve::Daemon` on loopback driven by
//! closed-loop TCP clients, one per worker, each waiting for every reply.
//!
//! Each client owns a three-zone market preloaded with 26 h of history
//! during set-up. A pass replays the market's next [`PASS_ROWS`] trace
//! rows over the wire: one ingest per row, then [`ADVISES_PER_ROW`]
//! advises at the new watermark. The first advise after an ingest is
//! cold (scan rebuild), the rest are warm.

use crate::layers::probe_all;
use crate::sys::{
    live_threads_cpu_ns, median, peak_rss_mb, percentile, thread_cpu_ns, timed, us_since, workers,
};
use crate::{Report, SETUPS};
use redspot_core::serve::{parse_request, Advice, Daemon, MarketSpec, Server};
use redspot_core::{AdaptiveRunner, Era};
use redspot_trace::gen::GenConfig;
use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, TraceHandle, TraceSet, ZoneId};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Zones per market.
const ZONES: usize = 3;
/// Sampling step of every market, seconds.
const STEP: u64 = 300;
/// History rows ingested before a pass starts advising (26 h).
const PRELOAD_ROWS: u64 = 12 * 26;
/// Rows replayed per pass (one hour).
const PASS_ROWS: u64 = 12;
/// Upper bound on rows per client checked against a direct session.
const MAX_DIRECT_CHECKS: usize = 1000;
/// Advises after each replayed ingest: one cold, the rest warm.
const ADVISES_PER_ROW: usize = 3;
/// The advised job: the paper's standard 20 h of work, 23 h left.
const REMAINING_COMPUTE: u64 = 72_000;
const REMAINING_TIME: u64 = 82_800;
/// Bid every market is opened with (milli-dollars).
const BID_MILLIS: u64 = 810;

/// The `open` request for `market`.
fn open_line(market: &str, seed: u64) -> String {
    format!(
        r#"{{"req":"open","market":"{market}","zones":{ZONES},"step":{STEP},"start":0,"era":"classic","bid":{BID_MILLIS},"seed":{seed}}}"#
    )
}

/// The `ingest` request carrying trace row `row` (one price per zone).
fn ingest_line(market: &str, traces: &TraceSet, row: u64) -> String {
    let prices: Vec<String> = (0..ZONES)
        .map(|z| {
            traces.zone(ZoneId(z)).samples()[row as usize]
                .millis()
                .to_string()
        })
        .collect();
    format!(
        r#"{{"req":"ingest","market":"{market}","at":{},"prices":[{}]}}"#,
        row * STEP,
        prices.join(",")
    )
}

/// The decision instant a live client asks about once `rows` rows are
/// in: one hour behind the watermark.
fn advise_now(rows: u64) -> u64 {
    rows * STEP - 3600
}

/// The `advise` request a client issues once `rows` rows are in.
fn advise_line(market: &str, rows: u64) -> String {
    format!(
        r#"{{"req":"advise","market":"{market}","now":{},"remaining_compute":{REMAINING_COMPUTE},"remaining_time":{REMAINING_TIME}}}"#,
        advise_now(rows)
    )
}

/// What one client saw during one pass.
#[derive(Default)]
struct PassLog {
    wall_s: f64,
    requests: u64,
    /// Requests whose reply was not `"ok":true`, or whose advises for
    /// one row disagreed.
    bad: u64,
    ingest_us: Vec<f64>,
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    /// `(rows ingested, "advice" part of the row's first advise reply)`.
    advice: Vec<(u64, String)>,
}

fn advice_part(reply: &str) -> &str {
    reply.find("\"advice\":").map_or("", |i| &reply[i..])
}

/// One client: its connection, its trace, and its current market.
struct Client {
    /// The TCP connection; `None` sends each request straight to the
    /// router in process (`Server::handle_line`, no sockets).
    conn: Option<Conn>,
    traces: TraceSet,
    /// Markets opened so far; the last one is current.
    markets: usize,
    /// Rows ingested into the current market.
    rows: u64,
}

impl Client {
    fn market(&self, id: usize) -> String {
        format!("c{id}m{}", self.markets - 1)
    }

    /// Open a fresh market and ingest its 26 h history in process, on
    /// the daemon's own router (set-up work, not wire traffic).
    fn open_market(&mut self, id: usize, server: &Server, seed: u64) -> bool {
        self.markets += 1;
        self.rows = 0;
        let market = self.market(id);
        let mut ok = server
            .handle_line(0, &open_line(&market, seed))
            .reply
            .contains("\"ok\":true");
        while self.rows < PRELOAD_ROWS {
            let line = ingest_line(&market, &self.traces, self.rows);
            ok &= server.handle_line(0, &line).reply.contains("\"ok\":true");
            self.rows += 1;
        }
        ok
    }

    /// Replay the next [`PASS_ROWS`] rows: per row, one ingest and
    /// [`ADVISES_PER_ROW`] advises, each waiting for its reply.
    fn pass(&mut self, id: usize, server: &Server, seed: u64) -> PassLog {
        let mut log = PassLog::default();
        if self.rows + PASS_ROWS > self.traces.zone(ZoneId(0)).len() as u64 {
            // End of this trace: continue on a fresh market (rare; only
            // when a pass is fast enough to replay a month per run).
            log.bad += u64::from(!self.open_market(id, server, seed));
        }
        let market = self.market(id);
        let start = Instant::now();
        let send = |log: &mut PassLog, conn: &mut Option<Conn>, line: &str| -> (String, f64) {
            let t = Instant::now();
            let reply = match conn {
                Some(conn) => conn.roundtrip(line),
                None => server.handle_line(0, line).reply,
            };
            let us = us_since(t);
            log.requests += 1;
            if !reply.contains("\"ok\":true") {
                log.bad += 1;
            }
            (reply, us)
        };
        for _ in 0..PASS_ROWS {
            let line = ingest_line(&market, &self.traces, self.rows);
            let (_, us) = send(&mut log, &mut self.conn, &line);
            log.ingest_us.push(us);
            self.rows += 1;
            let line = advise_line(&market, self.rows);
            let (first, us) = send(&mut log, &mut self.conn, &line);
            log.cold_us.push(us);
            for _ in 1..ADVISES_PER_ROW {
                let (reply, us) = send(&mut log, &mut self.conn, &line);
                log.warm_us.push(us);
                if advice_part(&reply) != advice_part(&first) {
                    log.bad += 1;
                }
            }
            log.advice
                .push((self.rows, advice_part(&first).to_string()));
        }
        log.wall_s = start.elapsed().as_secs_f64();
        log
    }
}

/// One line-JSON connection over TCP.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and wait for its reply line.
    fn roundtrip(&mut self, request: &str) -> String {
        let mut reply = String::new();
        let sent = self
            .reader
            .get_mut()
            .write_all(format!("{request}\n").as_bytes());
        if sent.is_ok() && self.reader.read_line(&mut reply).is_ok() {
            reply.truncate(reply.trim_end().len());
        }
        reply
    }
}

/// A running daemon with its connected, preloaded clients.
struct Rig {
    server: Arc<Server>,
    clients: Vec<Client>,
    daemon: std::thread::JoinHandle<bool>,
    /// Whether every set-up request succeeded.
    ok: bool,
}

impl Rig {
    /// Generate one trace per client, bind the daemon on an ephemeral
    /// loopback port, connect the clients, and preload each client's
    /// market with 26 h of history.
    fn start(seed: u64, n_clients: usize) -> Rig {
        let daemon = Daemon::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = daemon.local_addr().expect("bound address");
        let server = Arc::clone(daemon.server());
        let daemon = std::thread::spawn(move || daemon.run());
        let mut ok = true;
        let clients = (0..n_clients)
            .map(|id| {
                let mut client = Client {
                    conn: Some(Conn::connect(addr).expect("connect to the daemon")),
                    traces: GenConfig::high_volatility(seed.wrapping_add(id as u64)).generate(),
                    markets: 0,
                    rows: 0,
                };
                ok &= client.open_market(id, &server, seed);
                client
            })
            .collect();
        Rig {
            server,
            clients,
            daemon,
            ok,
        }
    }

    /// Run passes on every client concurrently until `seconds` have
    /// passed since `t0` (at least one each). Returns each client's
    /// passes and the CPU nanoseconds its thread used.
    fn passes(&mut self, seed: u64, t0: Instant, seconds: f64) -> Vec<(Vec<PassLog>, u64)> {
        let server = &self.server;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(id, client)| {
                    s.spawn(move || {
                        let cpu0 = thread_cpu_ns();
                        let mut logs = Vec::new();
                        while logs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
                            logs.push(client.pass(id, server, seed));
                        }
                        (logs, thread_cpu_ns() - cpu0)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    /// Shut the daemon down; returns whether set-up succeeded and the
    /// daemon saw no failed request.
    fn stop(mut self) -> bool {
        let bye = match &mut self.clients[0].conn {
            Some(conn) => conn.roundtrip(r#"{"req":"shutdown"}"#),
            None => String::new(),
        };
        drop(self.clients);
        self.daemon.join().expect("daemon thread") && bye.contains("\"ok\":true") && self.ok
    }
}

/// Whether a served advise reply equals, field for exact field,
/// [`Advice::derive`] over a direct decision session on the first
/// `rows` rows of `traces`.
fn matches_direct(reply_advice: &str, traces: &TraceSet, rows: u64, seed: u64) -> bool {
    let spec = MarketSpec {
        market: String::new(),
        zones: ZONES,
        start: SimTime::ZERO,
        step: STEP,
        era: Era::Classic,
        bid: Price::from_millis(BID_MILLIS),
        seed,
    };
    let cfg = spec.config();
    let series = (0..ZONES)
        .map(|z| {
            let samples = traces.zone(ZoneId(z)).samples()[..rows as usize].to_vec();
            PriceSeries::with_step(SimTime::ZERO, STEP, samples)
        })
        .collect();
    let handle = TraceHandle::new(TraceSet::new(series));
    let (rc, rt) = (
        SimDuration::from_secs(REMAINING_COMPUTE),
        SimDuration::from_secs(REMAINING_TIME),
    );
    let Some(perm) = AdaptiveRunner::new(handle, SimTime::ZERO, cfg.clone())
        .session()
        .decide(SimTime::from_secs(advise_now(rows)), rc, rt)
    else {
        return false;
    };
    let want = Advice::derive(&perm, rc, rt, &cfg);
    let Ok(parsed) = serde_json::from_str::<Value>(&format!("{{{reply_advice}")) else {
        return false;
    };
    let Some(advice) = parsed
        .as_map()
        .and_then(|m| serde::__find(m, "advice"))
        .and_then(Value::as_map)
    else {
        return false;
    };
    let field = |k: &str| serde::__find(advice, k);
    field("bid") == Some(&Value::UInt(want.bid_millis))
        && field("zones")
            == Some(&Value::Seq(
                want.zones.iter().map(|&z| Value::UInt(z as u64)).collect(),
            ))
        && field("policy") == Some(&Value::Str(want.policy.clone()))
        && field("predicted_cost_millis") == Some(&Value::Float(want.predicted_cost_millis))
        && field("od_fallback_millis") == Some(&Value::Float(want.od_fallback_millis))
        && field("forecast_on_demand") == Some(&Value::Bool(want.forecast_on_demand))
}

/// `serve` layer in process: `parse_request` per request line, and
/// `Server::handle_line` per request kind over four passes of the client
/// script on a market preloaded with 26 h. Returns the advise handle
/// times (µs, cold and warm pooled).
pub fn handle_probe(rep: &mut Report, traces: &TraceSet, seed: u64) -> Vec<f64> {
    let server = Server::new();
    let mut client = Client {
        conn: None,
        traces: traces.clone(),
        markets: 0,
        rows: 0,
    };
    let mut ok = client.open_market(0, &server, seed);
    let market = client.market(0);
    let mut parse = Vec::new();
    for row in PRELOAD_ROWS..PRELOAD_ROWS + 4 * PASS_ROWS {
        for line in [
            ingest_line(&market, traces, row),
            advise_line(&market, row + 1),
        ] {
            let t = Instant::now();
            ok &= std::hint::black_box(parse_request(&line)).is_ok();
            parse.push(us_since(t));
        }
    }
    let logs: Vec<PassLog> = (0..4).map(|_| client.pass(0, &server, seed)).collect();
    ok &= logs.iter().all(|l| l.bad == 0);
    rep.check(ok, || "serve probe: a request failed".into());
    let pooled = |f: fn(&PassLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (ingest, mut cold, warm) = (
        pooled(|l| &l.ingest_us),
        pooled(|l| &l.cold_us),
        pooled(|l| &l.warm_us),
    );
    let (stats, _) = server
        .registry()
        .stats(&market)
        .expect("probe market is open");
    rep.set("serve.parse_us", median(&parse), "us");
    rep.set("serve.handle_us.ingest", median(&ingest), "us");
    rep.set("serve.handle_us.advise_cold", median(&cold), "us");
    rep.set("serve.handle_us.advise_warm", median(&warm), "us");
    rep.set("serve.cold_builds", stats.cold_builds as f64, "count");
    rep.set("serve.warm_advises", stats.warm_advises as f64, "count");
    rep.keep("serve.handle_us.advise_cold", &cold);
    rep.keep("serve.handle_us.advise_warm", &warm);
    cold.extend(warm);
    cold
}

/// A short single-client TCP session on `traces` (26 h of history
/// preloaded, then one pass); returns the advise round trips, µs.
pub fn wire_probe(rep: &mut Report, traces: &TraceSet, seed: u64) -> Vec<f64> {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = daemon.local_addr().expect("bound address");
    let server = Arc::clone(daemon.server());
    let handle = std::thread::spawn(move || daemon.run());
    let mut client = Client {
        conn: Some(Conn::connect(addr).expect("connect to the daemon")),
        traces: traces.clone(),
        markets: 0,
        rows: 0,
    };
    let mut ok = client.open_market(0, &server, seed);
    let log = client.pass(0, &server, seed);
    ok &= log.bad == 0;
    ok &= client
        .conn
        .as_mut()
        .is_some_and(|c| c.roundtrip(r#"{"req":"shutdown"}"#).contains("\"ok\":true"));
    drop(client);
    ok &= handle.join().expect("daemon thread");
    rep.check(ok, || "wire probe: a request failed".into());
    let mut rtt = log.cold_us;
    rtt.extend(log.warm_us);
    rtt
}

/// Run the `serve_mixed` workload.
pub fn run(rep: &mut Report, seed: u64, seconds: f64, traced: bool, work: &Path) {
    let n_clients = workers();
    rep.ctx("client_connections", n_clients);
    rep.ctx("advises_per_row", ADVISES_PER_ROW);
    rep.ctx("rows_per_pass", PASS_ROWS);

    // Set-up: daemon bind, client connects, trace generation and history
    // preload, several times; the last rig serves the timed phase.
    let mut setup_s = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        let (r, wall, _) = timed(|| Rig::start(seed, n_clients));
        setup_s.push(wall);
        if i + 1 < SETUPS {
            rep.check(r.stop(), || "serve set-up: a request failed".into());
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("set-ups ran");

    // CPU of the timed phase: the daemon's threads (alive throughout)
    // plus each client thread's own count. Over loopback TCP the kernel's
    // share is charged to whichever task a timer interrupt lands on, and
    // every reply waits on a delayed-ACK timer (see README), so this
    // count is noisy; the router's own cost per request is in the
    // `serve.handle_us.*` layer metrics.
    let cpu0 = live_threads_cpu_ns();
    let t0 = Instant::now();
    let runs = rig.passes(seed, t0, seconds);
    let timed_wall = t0.elapsed().as_secs_f64();
    let client_cpu: u64 = runs.iter().map(|(_, ns)| ns).sum();
    let cpu_ns = live_threads_cpu_ns() - cpu0 + client_cpu;
    let rss = peak_rss_mb();

    let all: Vec<&PassLog> = runs.iter().flat_map(|(logs, _)| logs).collect();
    let walls: Vec<f64> = all.iter().map(|l| l.wall_s).collect();
    let requests: u64 = all.iter().map(|l| l.requests).sum();
    let collect = |f: fn(&PassLog) -> &Vec<f64>| -> Vec<f64> {
        all.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let ingest = collect(|l| &l.ingest_us);
    let cold = collect(|l| &l.cold_us);
    let warm = collect(|l| &l.warm_us);
    let mut advise = cold.clone();
    advise.extend(&warm);

    rep.set("setup_s", median(&setup_s), "s");
    rep.set("wall_s", median(&walls), "s");
    rep.set("cpu_s", cpu_ns as f64 / 1e9 / all.len() as f64, "s");
    rep.set("peak_rss_mb", rss, "MB");
    rep.set("passes", all.len() as f64, "count");
    rep.set("requests_per_s", requests as f64 / timed_wall, "1/s");
    rep.set("advise_p50_us", percentile(&advise, 0.50), "us");
    rep.set("advise_p99_us", percentile(&advise, 0.99), "us");
    rep.set("advise_cold_p50_us", percentile(&cold, 0.50), "us");
    rep.set("advise_warm_p50_us", percentile(&warm, 0.50), "us");
    rep.set("ingest_p50_us", percentile(&ingest, 0.50), "us");
    rep.set("ingest_p99_us", percentile(&ingest, 0.99), "us");
    rep.ctx("advise_samples", advise.len());
    rep.ctx("ingest_samples", ingest.len());
    rep.keep("setup_s", &setup_s);
    rep.keep("pass_wall_s", &walls);
    rep.keep("advise_rtt_us", &advise);
    rep.keep("ingest_rtt_us", &ingest);

    if traced {
        let t1 = Instant::now();
        let traced_runs = rig.passes(seed, t1, 0.0);
        let traced: Vec<&PassLog> = traced_runs.iter().flat_map(|(logs, _)| logs).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|l| l.wall_s).collect();
        rep.set(
            "tracing.overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
            "%",
        );
        for l in &traced {
            rep.check_n(l.requests, l.bad.min(l.requests), || {
                "traced pass: a request failed".into()
            });
        }
        probe_all(
            rep,
            &rig.clients[0].traces,
            seed,
            n_clients,
            work,
            Some(&advise),
        );
        // The registry answers without a market context: no Markov memo
        // and no decision cache run in this workload.
        for name in [
            "markov.memo_hits",
            "markov.memo_misses",
            "markov.memo_entries",
            "adaptive.cache_hits",
            "adaptive.cache_misses",
            "adaptive.cache_entries",
        ] {
            rep.set(name, 0.0, "count");
        }
        rep.set("markov.cpu_share_pct_computed", 0.0, "%");
    }

    // Cold/warm counts over every market the clients used.
    let (mut cold_builds, mut warm_advises) = (0u64, 0u64);
    for (id, client) in rig.clients.iter().enumerate() {
        for m in 0..client.markets {
            if let Ok((stats, _)) = rig.server.registry().stats(&format!("c{id}m{m}")) {
                cold_builds += stats.cold_builds;
                warm_advises += stats.warm_advises;
            }
        }
    }
    rep.ctx("serve_cold_builds", cold_builds);
    rep.ctx("serve_warm_advises", warm_advises);
    if traced {
        rep.set("serve.cold_builds", cold_builds as f64, "count");
        rep.set("serve.warm_advises", warm_advises as f64, "count");
    }

    // Output checks: every reply ok, the advises for one row agree, and
    // each row's advice equals a direct decision session over the same
    // rows (an evenly spaced sample when a client replayed very many).
    for (id, (logs, _)) in runs.iter().enumerate() {
        for l in logs {
            rep.check_n(l.requests, l.bad.min(l.requests), || {
                format!("client {id}: a request failed or advises for one row disagreed")
            });
        }
        let rows: Vec<&(u64, String)> = logs.iter().flat_map(|l| &l.advice).collect();
        let stride = rows.len().div_ceil(MAX_DIRECT_CHECKS).max(1);
        let traces = &rig.clients[id].traces;
        let sample: Vec<_> = rows.iter().step_by(stride).collect();
        let mismatched = sample
            .iter()
            .filter(|(n, advice)| !matches_direct(advice, traces, *n, seed))
            .count() as u64;
        rep.check_n(sample.len() as u64, mismatched, || {
            format!("client {id}: {mismatched} advise replies differ from a direct session")
        });
    }
    let clean = rig.stop();
    rep.check(clean, || "daemon reported a failed request".into());
}
