//! The `mcdla` CLI: one binary regenerating every table and figure of
//! Kwon & Rhu's *Beyond the Memory Wall* (MICRO-51 2018).
//!
//! ```text
//! mcdla <subcommand> [--json] [--threads N] [--out FILE]
//! ```
//!
//! Run `mcdla help` for the subcommand list. All simulation subcommands
//! execute through the shared scenario runner: cells fan out across
//! worker threads and overlapping grids are memoized, so `mcdla all`
//! simulates each (design, benchmark, strategy, knobs) cell exactly once.

use std::io::Write as _;
use std::process::ExitCode;

use mcdla_bench::reports;
use serde::Value;

/// Everything `main` needs from the argument list.
struct Args {
    command: String,
    /// Positional arguments after the subcommand (`mcdla query <endpoint>`).
    rest: Vec<String>,
    json: bool,
    ndjson: bool,
    out: Option<String>,
    batches: Vec<u64>,
    devices: Vec<usize>,
    topologies: Vec<mcdla::interconnect::FabricTopology>,
    threads: Option<usize>,
    filter: Option<String>,
    addr: Option<String>,
    cache_cap: Option<usize>,
    snapshot: Option<String>,
    body: Option<String>,
    workers: Option<usize>,
    backends: Vec<String>,
    timeout_ms: Option<u64>,
    interval_ms: Option<u64>,
    samples: Option<u64>,
}

const USAGE: &str = "\
mcdla — regenerate the tables and figures of Kwon & Rhu, MICRO-51 2018

usage: mcdla <subcommand> [options]

subcommands
  table2        Table II device/memory-node configuration
  table3        Table III benchmark suite
  table4        Table IV memory-node power + §V-C perf/W
  fig2          Fig. 2 execution time across device generations [--json]
  fig7          Figs. 5/7 ring structures and link budgets
  fig9          Fig. 9 collective latency vs ring size
  fig10         Fig. 10 LOCAL vs BW_AWARE page placement
  fig11         Fig. 11 latency breakdown stacks [--json]
  fig12         Fig. 12 CPU memory-bandwidth usage [--json]
  fig13         Fig. 13 normalized performance [--json]
  fig14         Fig. 14 batch-size sensitivity [--json]
  scalability   §V-D multi-device scaling [--json]
  sensitivity   §V-B sensitivity studies [--json]
  scale-out     §VI NVSwitch-class weak scaling [--json]
  ablations     mechanism ablation studies
  energy        dynamic energy-per-iteration comparison
  paper-report  the full paper-vs-measured summary
  sweep         time every grid cell, write BENCH_scenarios.json
                (--ndjson streams one JSON object per cell to stdout)
  simulate      run one scenario cell from JSON, print its report
  serve         run the persistent HTTP simulation service
  query         query a running service or gateway (healthz | stats |
                metrics | cluster-stats | simulate | grid |
                trace <id> | requests | history [QUERY] |
                cluster-history [QUERY]); QUERY is a raw query string,
                e.g. `mcdla query history 'series=req_per_s&last=60'`
  top           live fleet console: repaint per-node req/s, latency,
                hit rates, sheds, and sparklines from the telemetry
                history (--addr GATEWAY or --backends WORKERS;
                --interval-ms, --samples N for scripted captures)
  cluster       spawn a local fleet: N workers on ephemeral ports plus a
                gateway routing across them (--workers N)
  gateway       run a gateway over an existing fleet (--backends LIST)
  serve-bench   time the service layer, write BENCH_service.json
  store-bench   time the result-store cache core, write BENCH_store.json
  cluster-bench time 1/2/4-worker fleets, write BENCH_cluster.json
  stage-bench   time mega-grid sweeps through the staged engine vs the
                monolithic one, write BENCH_stages.json
  fabric-bench  time the routed flow-level fabric against the analytical
                collective model, write BENCH_fabric.json
  obs-bench     time the telemetry sampler thread's own CPU under the
                pipelined cached load, write BENCH_obs.json
  bench-report  print the six committed bench envelopes and check every
                floor they record
  all           every report above, in order
  help          this message

options
  --json            emit the experiment data as JSON instead of tables
  --ndjson          sweep: stream cells as NDJSON (one object per line,
                    completion order, constant memory) to stdout or --out
  --threads N       simulation worker threads (same as MCDLA_THREADS=N);
                    for `serve`, the simulation worker pool behind the
                    event loop (connections are handled non-blocking)
  --out FILE        sweep and *-bench output path (each *-bench exits
                    non-zero when a metric misses its floor)
  --batches LIST    sweep: comma-separated batch sizes to add as an axis
  --devices LIST    sweep: comma-separated device counts to add as an axis
  --topologies LIST sweep: comma-separated fabric topologies to add as an
                    axis (ring | line | mesh | pooled-switch | fat-tree);
                    flow-routed copies of the matrix join the analytical
                    default cells
  --filter SUBSTR   sweep: only run cells whose label contains SUBSTR
                    (labels look like `MC-DLA(B)/AlexNet/data-parallel`);
                    a filter matching zero cells is an error
  --addr HOST:PORT  serve/query listen or target address (default
                    127.0.0.1:7878); for cluster/gateway, the gateway's
                    listen address (default 127.0.0.1:7900)
  --cache-cap N     serve/sweep/cluster: bound the result store to N
                    cells (globally LRU-evicted; residency never
                    exceeds N; cluster: per worker)
  --snapshot FILE   serve: warm-load at startup, rewrite after new cells
                    (snapshots larger than --cache-cap are compacted);
                    cluster: per-worker files FILE.w0.json, FILE.w1.json...
  --body JSON       simulate/query: the request body (`-` reads stdin;
                    `query grid` defaults to {}, the full paper matrix)
  --workers N       cluster: fleet size
  --backends LIST   gateway/top: comma-separated worker host:port addresses
  --timeout-ms N    query/cluster/gateway/top: connect/read/write deadline
                    per request (query default: 10 s connect, 120 s read;
                    top default: 2 s everywhere so a dead node cannot
                    stall the repaint)
  --interval-ms N   top: repaint cadence (default 1000)
  --samples N       top: exit after N frames (default: run until Ctrl-C)

service endpoints (see docs/protocol.md and docs/cluster.md)
  POST /simulate   one serde Scenario in, {scenario,digest,cached,report} out
  POST /grid       cartesian axes in, {count,cells:[...]} out
  GET  /healthz    liveness probe
  GET  /stats      store hit/miss/eviction/in-flight + request counters
  GET  /metrics    Prometheus text exposition (worker and gateway)
  GET  /metrics/history    time-series rings (?series=a,b&last=N)
  GET  /cluster/stats  gateway: per-worker health + fleet totals
  GET  /cluster/history    gateway: tail-aligned fleet history +
                           per-worker rings (?last=N)
  GET  /debug/trace/<id>   one recorded request's span tree
  GET  /debug/requests     the flight-recorder listing (?sort=slow,
                           ?endpoint=..., ?limit=N)
";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    let mut args = Args {
        command,
        rest: Vec::new(),
        json: false,
        ndjson: false,
        out: None,
        batches: Vec::new(),
        devices: Vec::new(),
        topologies: Vec::new(),
        threads: None,
        filter: None,
        addr: None,
        cache_cap: None,
        snapshot: None,
        body: None,
        workers: None,
        backends: Vec::new(),
        timeout_ms: None,
        interval_ms: None,
        samples: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => args.json = true,
            "--ndjson" => args.ndjson = true,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("thread count must be >= 1 (got `{v}`)"))?;
                // The shared runner reads MCDLA_THREADS at first use, which
                // is strictly after argument parsing.
                std::env::set_var("MCDLA_THREADS", n.to_string());
                args.threads = Some(n);
            }
            "--out" => args.out = Some(argv.next().ok_or("--out needs a path")?),
            "--batches" => {
                args.batches = parse_list(&argv.next().ok_or("--batches needs a list")?)?;
                if args.batches.contains(&0) {
                    return Err("batch sizes must be >= 1".into());
                }
            }
            "--devices" => {
                args.devices = parse_list(&argv.next().ok_or("--devices needs a list")?)?;
                if args.devices.contains(&0) {
                    return Err("device counts must be >= 1".into());
                }
            }
            "--topologies" => {
                // FromStr on FabricTopology already names every accepted
                // topology in its error, so the raw parse error is the
                // helpful message (parse_list would swallow it).
                let v = argv
                    .next()
                    .ok_or("--topologies needs a list (e.g. ring,pooled-switch)")?;
                args.topologies = v
                    .split(',')
                    .map(|p| p.trim().parse())
                    .collect::<Result<_, _>>()?;
                if args.topologies.is_empty() {
                    return Err("--topologies needs at least one topology".into());
                }
            }
            "--filter" => args.filter = Some(argv.next().ok_or("--filter needs a substring")?),
            "--addr" => args.addr = Some(argv.next().ok_or("--addr needs host:port")?),
            "--cache-cap" => {
                let v = argv.next().ok_or("--cache-cap needs a value")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("cache capacity must be >= 1 (got `{v}`)"))?;
                args.cache_cap = Some(n);
            }
            "--snapshot" => args.snapshot = Some(argv.next().ok_or("--snapshot needs a path")?),
            "--body" => args.body = Some(argv.next().ok_or("--body needs JSON (or `-`)")?),
            "--workers" => {
                let v = argv.next().ok_or("--workers needs a count")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("worker count must be >= 1 (got `{v}`)"))?;
                args.workers = Some(n);
            }
            "--backends" => {
                let v = argv
                    .next()
                    .ok_or("--backends needs host:port,host:port,...")?;
                args.backends = v
                    .split(',')
                    .map(|a| a.trim().to_owned())
                    .filter(|a| !a.is_empty())
                    .collect();
                if args.backends.is_empty() {
                    return Err("--backends needs at least one host:port".into());
                }
            }
            "--timeout-ms" => {
                let v = argv.next().ok_or("--timeout-ms needs a value")?;
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("timeout must be >= 1 ms (got `{v}`)"))?;
                args.timeout_ms = Some(n);
            }
            "--interval-ms" => {
                let v = argv.next().ok_or("--interval-ms needs a value")?;
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("interval must be >= 1 ms (got `{v}`)"))?;
                args.interval_ms = Some(n);
            }
            "--samples" => {
                let v = argv.next().ok_or("--samples needs a count")?;
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("sample count must be >= 1 (got `{v}`)"))?;
                args.samples = Some(n);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            positional => args.rest.push(positional.to_owned()),
        }
    }
    Ok(args)
}

/// Resolves `--body`, reading stdin when it is `-`.
fn resolve_body(args: &Args) -> Result<Option<String>, String> {
    match args.body.as_deref() {
        Some("-") => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(Some(text))
        }
        Some(body) => Ok(Some(body.to_owned())),
        None => Ok(None),
    }
}

/// Client/gateway deadlines: `--timeout-ms` bounds every phase; the
/// default keeps the generous stock deadlines (10 s connect, 120 s
/// read) so cold cells still simulate, while a dead host fails fast.
fn timeouts(args: &Args) -> mcdla::serve::client::Timeouts {
    match args.timeout_ms {
        Some(ms) => mcdla::serve::client::Timeouts::all(std::time::Duration::from_millis(ms)),
        None => mcdla::serve::client::Timeouts::default(),
    }
}

fn parse_list<T: std::str::FromStr>(csv: &str) -> Result<Vec<T>, String> {
    csv.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("invalid list element `{p}`"))
        })
        .collect()
}

const SUBCOMMANDS: &[&str] = &[
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "scalability",
    "sensitivity",
    "scale-out",
    "ablations",
    "energy",
    "paper-report",
    "sweep",
    "simulate",
    "serve",
    "query",
    "top",
    "cluster",
    "gateway",
    "serve-bench",
    "store-bench",
    "cluster-bench",
    "stage-bench",
    "fabric-bench",
    "obs-bench",
    "bench-report",
    "all",
    "help",
    "--help",
    "-h",
];

fn run(args: &Args) -> Result<(), String> {
    // Reject unknown subcommands before any flag-specific dispatch so
    // `mcdla bogus --json` names the real problem.
    if !SUBCOMMANDS.contains(&args.command.as_str()) {
        return Err(format!("unknown subcommand `{}`", args.command));
    }
    if args.ndjson && args.command != "sweep" {
        return Err(format!(
            "--ndjson is a `sweep` flag (got `{}`)",
            args.command
        ));
    }
    if !args.topologies.is_empty() && args.command != "sweep" {
        return Err(format!(
            "--topologies is a `sweep` flag (got `{}`)",
            args.command
        ));
    }
    if args.timeout_ms.is_some()
        && !matches!(
            args.command.as_str(),
            "query" | "cluster" | "gateway" | "top"
        )
    {
        return Err(format!(
            "--timeout-ms is a `query`/`cluster`/`gateway`/`top` flag (got `{}`)",
            args.command
        ));
    }
    if args.workers.is_some() && args.command != "cluster" {
        return Err(format!(
            "--workers is a `cluster` flag (got `{}`)",
            args.command
        ));
    }
    if !args.backends.is_empty() && !matches!(args.command.as_str(), "gateway" | "top") {
        return Err(format!(
            "--backends is a `gateway`/`top` flag (got `{}`)",
            args.command
        ));
    }
    if (args.interval_ms.is_some() || args.samples.is_some()) && args.command != "top" {
        return Err(format!(
            "--interval-ms/--samples are `top` flags (got `{}`)",
            args.command
        ));
    }
    // Only `query` takes a positional argument (its endpoint).
    if !args.rest.is_empty() && args.command != "query" {
        return Err(format!(
            "`{}` takes no positional argument `{}`",
            args.command, args.rest[0]
        ));
    }
    let json_data: Option<fn() -> Value> = match args.command.as_str() {
        "fig2" => Some(reports::fig2_json),
        "fig11" => Some(reports::fig11_json),
        "fig12" => Some(reports::fig12_json),
        "fig13" => Some(reports::fig13_json),
        "fig14" => Some(reports::fig14_json),
        "scalability" => Some(reports::scalability_json),
        "sensitivity" => Some(reports::sensitivity_json),
        "scale-out" => Some(reports::scale_out_json),
        _ => None,
    };
    if args.json {
        match json_data {
            Some(data) => {
                println!("{}", serde::json::to_string_pretty(&data()));
                return Ok(());
            }
            None if args.command != "sweep" => {
                return Err(format!("`{}` has no JSON form (tables only)", args.command));
            }
            None => {}
        }
    }

    match args.command.as_str() {
        "table2" => print!("{}", reports::table2_text()),
        "table3" => print!("{}", reports::table3_text()),
        "table4" => print!("{}", reports::table4_text()),
        "fig2" => print!("{}", reports::fig2_text()),
        "fig7" => print!("{}", reports::fig7_text()),
        "fig9" => print!("{}", reports::fig9_text()),
        "fig10" => print!("{}", reports::fig10_text()),
        "fig11" => print!("{}", reports::fig11_text()),
        "fig12" => print!("{}", reports::fig12_text()),
        "fig13" => print!("{}", reports::fig13_text()),
        "fig14" => print!("{}", reports::fig14_text()),
        "scalability" => print!("{}", reports::scalability_text()),
        "sensitivity" => print!("{}", reports::sensitivity_text()),
        "scale-out" => print!("{}", reports::scale_out_text()),
        "ablations" => print!("{}", reports::ablations_text()),
        "energy" => print!("{}", reports::energy_text()),
        "paper-report" => print!("{}", reports::paper_report_text()),
        "sweep" if args.ndjson => {
            // Streamed sweep: one compact JSON object per cell, written
            // as workers finish. Cells go to stdout (pipe into
            // `jq -s length` & friends) unless --out names a file; the
            // summary goes to stderr so stdout stays pure NDJSON. The
            // plan is validated *before* --out is created, so a bad
            // filter or axis never truncates an existing file.
            let plan = reports::plan_sweep(
                &args.batches,
                &args.devices,
                &args.topologies,
                args.filter.as_deref(),
                args.cache_cap,
            )?;
            let summary = match args.out.as_deref() {
                Some(path) => {
                    let file =
                        std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                    let mut out = std::io::BufWriter::new(file);
                    let s = reports::sweep_ndjson(plan, &mut out)?;
                    eprintln!("wrote {} cells to {path}", s.cells);
                    s
                }
                None => {
                    let stdout = std::io::stdout();
                    let mut out = std::io::BufWriter::new(stdout.lock());
                    reports::sweep_ndjson(plan, &mut out)?
                }
            };
            eprint!("{}", summary.summary);
        }
        "sweep" => {
            let plan = reports::plan_sweep(
                &args.batches,
                &args.devices,
                &args.topologies,
                args.filter.as_deref(),
                args.cache_cap,
            )?;
            let result = reports::sweep(plan);
            let path = args.out.as_deref().unwrap_or("BENCH_scenarios.json");
            std::fs::write(path, &result.json).map_err(|e| format!("writing {path}: {e}"))?;
            print!("{}", result.summary);
            println!("wrote {path}");
        }
        "simulate" => {
            let body = resolve_body(args)?
                .ok_or("`simulate` needs --body JSON (a serde Scenario; see docs/protocol.md)")?;
            let scenario: mcdla::core::Scenario =
                serde::json::from_str(&body).map_err(|e| format!("bad scenario JSON: {e}"))?;
            scenario.validate()?;
            let report = scenario.simulate();
            println!(
                "{}",
                serde::json::to_string_pretty(&mcdla::serve::cell_value(&scenario, &report, false))
            );
        }
        "serve" => {
            let config = mcdla::serve::ServeConfig {
                addr: args
                    .addr
                    .clone()
                    .unwrap_or_else(|| "127.0.0.1:7878".to_owned()),
                threads: args.threads.unwrap_or(4),
                cache_cap: args.cache_cap,
                snapshot: args.snapshot.clone().map(std::path::PathBuf::from),
                ..mcdla::serve::ServeConfig::default()
            };
            let server = mcdla::serve::Server::bind(&config)?;
            let local = server
                .local_addr()
                .map_err(|e| format!("resolving listen address: {e}"))?;
            println!(
                "mcdla-serve listening on {local} (event loop + {} worker threads, cache {}, snapshot {})",
                config.threads,
                match config.cache_cap {
                    Some(cap) => format!("{cap} cells"),
                    None => "unbounded".to_owned(),
                },
                match &config.snapshot {
                    Some(path) => path.display().to_string(),
                    None => "off".to_owned(),
                },
            );
            server.run().map_err(|e| format!("serving: {e}"))?;
        }
        "query" => {
            let endpoint = args.rest.first().ok_or(
                "`query` needs an endpoint: healthz | stats | metrics | cluster-stats | simulate \
                 | grid | trace | requests | history | cluster-history",
            )?;
            let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7878");
            let body = resolve_body(args)?;
            let (method, path, body) = match endpoint.as_str() {
                "healthz" => ("GET", "/healthz".to_owned(), None),
                "stats" => ("GET", "/stats".to_owned(), None),
                "metrics" => ("GET", "/metrics".to_owned(), None),
                "cluster-stats" => ("GET", "/cluster/stats".to_owned(), None),
                // The recorded span tree for one request id.
                "trace" => {
                    let id = args
                        .rest
                        .get(1)
                        .ok_or("`query trace` needs a request id: mcdla query trace <id>")?;
                    ("GET", format!("/debug/trace/{id}"), None)
                }
                // The flight-recorder listing (newest first).
                "requests" => ("GET", "/debug/requests".to_owned(), None),
                // Time-series rings; the optional second positional is a
                // raw query string (`series=req_per_s&last=60`).
                "history" | "cluster-history" => {
                    let base = if endpoint == "history" {
                        "/metrics/history"
                    } else {
                        "/cluster/history"
                    };
                    let path = match args.rest.get(1) {
                        Some(q) if !q.is_empty() => format!("{base}?{q}"),
                        _ => base.to_owned(),
                    };
                    ("GET", path, None)
                }
                "simulate" => (
                    "POST",
                    "/simulate".to_owned(),
                    Some(body.ok_or("`query simulate` needs --body JSON (a serde Scenario)")?),
                ),
                // An omitted grid body means the full paper matrix.
                "grid" => (
                    "POST",
                    "/grid".to_owned(),
                    Some(body.unwrap_or_else(|| "{}".to_owned())),
                ),
                other => {
                    return Err(format!(
                        "unknown query endpoint `{other}` (expected healthz | stats | metrics \
                         | cluster-stats | simulate | grid | trace | requests | history \
                         | cluster-history)"
                    ))
                }
            };
            let response = mcdla::serve::client::request_once_with(
                addr,
                method,
                &path,
                body.as_deref(),
                timeouts(args),
            )?;
            // A consumer closing the pipe early (`| head`) is a normal
            // end, as for `sweep --ndjson`.
            match writeln!(std::io::stdout().lock(), "{}", response.body) {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    return Err(format!("writing the response: {e}"));
                }
                _ => {}
            }
            if !response.is_ok() {
                return Err(format!("{addr}{path} answered HTTP {}", response.status));
            }
        }
        "top" => {
            // A dead node must not stall the repaint: default every
            // deadline to 2 s unless --timeout-ms overrides it.
            let top_timeouts = match args.timeout_ms {
                Some(ms) => {
                    mcdla::serve::client::Timeouts::all(std::time::Duration::from_millis(ms))
                }
                None => mcdla::serve::client::Timeouts::all(std::time::Duration::from_secs(2)),
            };
            let config = mcdla::cluster::console::TopConfig {
                gateway: args.addr.clone(),
                workers: args.backends.clone(),
                interval: std::time::Duration::from_millis(args.interval_ms.unwrap_or(1000)),
                frames: args.samples,
                timeouts: top_timeouts,
            };
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            mcdla::cluster::console::run_top(&config, &mut out)?;
        }
        "cluster" => {
            let workers = args.workers.ok_or("`cluster` needs --workers N")?;
            let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7900");
            let snapshot_prefix = args.snapshot.as_deref().map(std::path::Path::new);
            let mut handles = Vec::with_capacity(workers);
            let mut backends = Vec::with_capacity(workers);
            for i in 0..workers {
                let server = mcdla::serve::Server::bind(&mcdla::serve::ServeConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    threads: args.threads.unwrap_or(4),
                    cache_cap: args.cache_cap,
                    snapshot: snapshot_prefix
                        .map(|prefix| mcdla::cluster::worker_snapshot_path(prefix, i)),
                    ..mcdla::serve::ServeConfig::default()
                })?;
                let handle = server
                    .spawn()
                    .map_err(|e| format!("spawning worker {i}: {e}"))?;
                println!("mcdla-serve worker {i} listening on {}", handle.addr());
                backends.push(handle.addr().to_string());
                handles.push(handle);
            }
            let gateway = mcdla::cluster::Gateway::bind(&mcdla::cluster::GatewayConfig {
                addr: addr.to_owned(),
                backends,
                timeouts: timeouts(args),
                ..mcdla::cluster::GatewayConfig::default()
            })?;
            let local = gateway
                .local_addr()
                .map_err(|e| format!("resolving gateway address: {e}"))?;
            println!(
                "mcdla-gateway listening on {local} ({workers} workers, cache {}, snapshot {})",
                match args.cache_cap {
                    Some(cap) => format!("{cap} cells/worker"),
                    None => "unbounded".to_owned(),
                },
                match &args.snapshot {
                    Some(prefix) => format!("{prefix}.wN.json"),
                    None => "off".to_owned(),
                },
            );
            gateway.run().map_err(|e| format!("serving gateway: {e}"))?;
            for handle in handles {
                handle.shutdown();
            }
        }
        "gateway" => {
            if args.backends.is_empty() {
                return Err("`gateway` needs --backends host:port,host:port,...".into());
            }
            let gateway = mcdla::cluster::Gateway::bind(&mcdla::cluster::GatewayConfig {
                addr: args
                    .addr
                    .clone()
                    .unwrap_or_else(|| "127.0.0.1:7900".to_owned()),
                backends: args.backends.clone(),
                timeouts: timeouts(args),
                ..mcdla::cluster::GatewayConfig::default()
            })?;
            let local = gateway
                .local_addr()
                .map_err(|e| format!("resolving gateway address: {e}"))?;
            println!(
                "mcdla-gateway listening on {local} ({} backends)",
                args.backends.len()
            );
            gateway.run().map_err(|e| format!("serving gateway: {e}"))?;
        }
        "serve-bench" | "store-bench" | "cluster-bench" | "stage-bench" | "fabric-bench"
        | "obs-bench" => {
            use mcdla_bench::{
                cluster_bench, fabric_bench, measure, obs_bench, service, stage_bench, store_bench,
            };
            let (file, metrics) = match args.command.as_str() {
                "serve-bench" => ("BENCH_service.json", service::service_bench(4, 5_000)),
                "store-bench" => {
                    let threads = args.threads.unwrap_or(4);
                    let metrics = store_bench::store_bench(2048, threads, 128_000, 512_000);
                    ("BENCH_store.json", metrics)
                }
                "cluster-bench" => ("BENCH_cluster.json", cluster_bench::cluster_bench(4, 2_000)),
                // A true mega-grid: 10^6 cells on the knob sweep.
                "stage-bench" => ("BENCH_stages.json", stage_bench::stage_bench(41_667, 375)),
                "fabric-bench" => (
                    "BENCH_fabric.json",
                    fabric_bench::fabric_bench(64, &fabric_bench::PAPER_SCALES),
                ),
                "obs-bench" => ("BENCH_obs.json", obs_bench::obs_bench(4, 10_000)),
                other => unreachable!("`{other}` is not a bench"),
            };
            let path = args.out.as_deref().unwrap_or(file);
            measure::publish(&format!("mcdla {}", args.command), path, metrics)?;
        }
        "bench-report" => {
            let envelopes = mcdla_bench::collate::collect(std::path::Path::new("."))?;
            for envelope in &envelopes {
                print!("{}", envelope.render());
            }
            mcdla_bench::collate::check(&envelopes)?;
        }
        "all" => {
            for text in [
                reports::table2_text(),
                reports::table3_text(),
                reports::table4_text(),
                reports::fig2_text(),
                reports::fig7_text(),
                reports::fig9_text(),
                reports::fig10_text(),
                reports::fig11_text(),
                reports::fig12_text(),
                reports::fig13_text(),
                reports::fig14_text(),
                reports::scalability_text(),
                reports::sensitivity_text(),
                reports::scale_out_text(),
                reports::ablations_text(),
                reports::energy_text(),
                reports::paper_report_text(),
            ] {
                println!("{text}");
            }
        }
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => unreachable!("subcommand `{other}` passed the SUBCOMMANDS gate"),
    }
    Ok(())
}
