//! `serve-tcp`: the TCP front-end of `mvml-serve` on loopback, driven by an
//! open-loop Poisson generator over two connections (one per tenant).
//!
//! Every request is encoded with `proto::write_frame` and every reply read
//! with `proto::read_frame`, so the JSON codec, the connection handlers and
//! the driver thread do real work next to batch-1 inference. Latency is
//! timed from each request's *due* time: a request that falls due while its
//! connection still waits for a reply is sent when the reply arrives, and
//! the wait counts.

use crate::measure::{peak_rss_mb, repeated_setup, BestOf, Outcome, Rng, Samples, Tracer};
use crate::signs::{request_pools, tenant, CLASSES, IMAGE, POOL};
use mvml_core::vote;
use mvml_nn::Tensor;
use mvml_serve::server::ServerHandle;
use mvml_serve::tenant::{build_system, TenantConfig};
use mvml_serve::{read_frame, write_frame, Request, Response, Service, ServiceConfig, VerdictDto};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Total offered rates of the two fixed phases, req/s.
const RATE_LO: f64 = 100.0;
const RATE_HI: f64 = 250.0;
/// Shares of the end-to-end run spent at lo, at hi and in closed loop.
const SHARES: [f64; 3] = [0.3, 0.4, 0.3];
/// Rounds of (lo, hi, closed-loop) phases in the end-to-end run.
const SUBPHASES: usize = 8;
const WARMUP_REQUESTS: usize = 20;
/// Cap on one connection's requests in a phase (closed loops stop on time).
const MAX_PHASE_REQUESTS: usize = 100_000;
const SETUP_REPS: usize = 3;
/// Untraced/traced pairs of lo phases in the traced run of this workload.
const TRACE_CHUNKS: usize = 4;

fn tenants(seed: u64) -> Vec<TenantConfig> {
    (0..2u64)
        .map(|i| {
            tenant(
                &format!("tenant-{i}"),
                seed.wrapping_mul(31).wrapping_add(i),
            )
        })
        .collect()
}

/// A running server with one connection per tenant. Dropping it shuts the
/// server down and joins its threads.
struct Rig {
    cfgs: Vec<TenantConfig>,
    pools: Vec<Vec<Vec<f32>>>,
    server: Option<ServerHandle>,
    conns: Vec<TcpStream>,
}

fn setup(seed: u64) -> Rig {
    let cfgs = tenants(seed);
    let pools = request_pools(&cfgs, seed.wrapping_add(100));
    let service = Service::new(
        cfgs.clone(),
        ServiceConfig {
            seed,
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service builds");
    let server = ServerHandle::start(service, "127.0.0.1:0").expect("server binds");
    let conns: Vec<TcpStream> = (0..cfgs.len())
        .map(|_| {
            let s = TcpStream::connect(server.local_addr()).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let mut rig = Rig {
        cfgs,
        pools,
        server: Some(server),
        conns,
    };
    for c in 0..rig.conns.len() {
        for k in 0..WARMUP_REQUESTS {
            let name = rig.cfgs[c].name.clone();
            let px = rig.pools[c][k % POOL].clone();
            let mut tr = Tracer::new(false);
            let _ = exchange(&mut rig.conns[c], &name, k as u64, px, &mut tr, k as u64);
        }
    }
    rig
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            if let Some(conn) = self.conns.first_mut() {
                let _ = write_frame(conn, &Request::Shutdown);
                let _: Result<Option<Response>, _> = read_frame(conn);
            }
            self.conns.clear();
            if let Err(e) = server.join() {
                eprintln!("serve-tcp: server did not shut down cleanly: {e}");
            }
        }
    }
}

impl Rig {
    /// Rounds run and requests served so far, from the server's report.
    fn stats(&mut self) -> (u64, u64) {
        write_frame(&mut self.conns[0], &Request::Stats).expect("stats request");
        match read_frame(&mut self.conns[0]) {
            Ok(Some(Response::Stats { report })) => (
                report.rounds,
                report.tenants.iter().map(|t| t.requests).sum(),
            ),
            other => panic!("unexpected stats reply {other:?}"),
        }
    }
}

/// One request/reply exchange. Returns the decoded reply (`None` when the
/// exchange failed) and the encoded request frame.
fn exchange(
    conn: &mut TcpStream,
    tenant: &str,
    id: u64,
    pixels: Vec<f32>,
    tr: &mut Tracer,
    req: u64,
) -> (Option<Response>, Vec<u8>) {
    let request = Request::Classify {
        tenant: tenant.to_string(),
        id,
        shape: vec![1, IMAGE, IMAGE],
        pixels,
    };
    let mut frame = Vec::new();
    let encoded = tr.span("proto.encode_req", None, req, || {
        write_frame(&mut frame, &request)
    });
    if encoded.is_err() || conn.write_all(&frame).is_err() {
        return (None, frame);
    }
    let rtt = tr.open("server.rtt", None, req);
    let mut reply = vec![0u8; 4];
    let read = conn.read_exact(&mut reply).and_then(|()| {
        let len = u32::from_be_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
        reply.resize(4 + len, 0);
        conn.read_exact(&mut reply[4..])
    });
    tr.close(rtt);
    if read.is_err() {
        return (None, frame);
    }
    let decoded = tr.span("proto.decode_resp", None, req, || {
        read_frame::<_, Response>(&mut reply.as_slice())
    });
    (decoded.ok().flatten(), frame)
}

/// What one phase at a fixed offered rate measured.
#[derive(Default)]
struct Phase {
    /// Latency from due time, ms; failed requests are `+inf`.
    latency_ms: Samples,
    /// How late each request was sent after its due time, ms.
    lag_ms: Samples,
    sent: u64,
    failed: u64,
    /// Wall time from the phase's start to its last reply.
    seconds: f64,
    /// `(request key, latency ms)` of every request, the key naming its
    /// connection and place in the schedule.
    keyed: Vec<(usize, f64)>,
    /// `(tenant, pool index, verdict)` of every answered request.
    verdicts: Vec<(usize, usize, VerdictDto)>,
    /// Encoded request frames and decoded replies (traced phases only).
    frames: Vec<Vec<u8>>,
    replies: Vec<Response>,
}

/// Runs a phase for `seconds`: open loop at `rate` req/s in total, or
/// closed loop (each connection sends its next request as soon as the
/// reply arrives; latency is then the round trip) when `rate` is `None`.
fn phase(
    rig: &mut Rig,
    seed: u64,
    stream: u64,
    rate: Option<f64>,
    seconds: f64,
    tr: &mut Tracer,
) -> Phase {
    let epoch = tr.epoch();
    let traced = tr.enabled();
    let start = Instant::now() + Duration::from_millis(2);
    let conns_n = rig.conns.len() as f64;
    let Rig {
        cfgs, pools, conns, ..
    } = rig;
    let results: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let name = cfgs[c].name.clone();
                let pool = &pools[c];
                // The schedule is fixed before the phase starts.
                let mut rng = Rng::new(seed, stream * 16 + c as u64);
                let mut schedule = Vec::new();
                let mut due = 0.0;
                loop {
                    if let Some(rate) = rate {
                        due += rng.exp(rate / conns_n);
                    }
                    if due >= seconds || schedule.len() >= MAX_PHASE_REQUESTS {
                        break;
                    }
                    schedule.push((due, rng.below(POOL)));
                }
                scope.spawn(move || {
                    let mut tr = Tracer::with_epoch(epoch, traced);
                    let mut out = Phase::default();
                    for (k, (due, sample)) in schedule.into_iter().enumerate() {
                        if rate.is_none() && start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let due_at = match rate {
                            Some(_) => start + Duration::from_secs_f64(due),
                            None => Instant::now(),
                        };
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        out.lag_ms.push((sent - due_at).as_secs_f64() * 1e3);
                        let req = (stream << 40) | ((c as u64) << 32) | k as u64;
                        let (reply, frame) =
                            exchange(conn, &name, k as u64, pool[sample].clone(), &mut tr, req);
                        out.sent += 1;
                        let answered = match &reply {
                            Some(Response::Classified { id, verdict, .. }) if *id == k as u64 => {
                                Some(*verdict)
                            }
                            _ => None,
                        };
                        let key = c * MAX_PHASE_REQUESTS + k;
                        match (answered, reply) {
                            (Some(verdict), Some(reply)) => {
                                let ms = due_at.elapsed().as_secs_f64() * 1e3;
                                out.latency_ms.push(ms);
                                out.keyed.push((key, ms));
                                out.verdicts.push((c, sample, verdict));
                                if traced {
                                    out.frames.push(frame);
                                    out.replies.push(reply);
                                }
                            }
                            _ => {
                                out.failed += 1;
                                out.latency_ms.push(f64::INFINITY);
                                out.keyed.push((key, f64::INFINITY));
                            }
                        }
                    }
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut merged = Phase::default();
    for (p, t) in results {
        merged.absorb(p);
        tr.absorb(t);
    }
    merged.seconds = start.elapsed().as_secs_f64();
    merged
}

impl Phase {
    fn absorb(&mut self, p: Phase) {
        self.latency_ms.extend(&p.latency_ms);
        self.lag_ms.extend(&p.lag_ms);
        self.sent += p.sent;
        self.failed += p.failed;
        self.seconds += p.seconds;
        self.keyed.extend(p.keyed);
        self.verdicts.extend(p.verdicts);
        self.frames.extend(p.frames);
        self.replies.extend(p.replies);
    }
}

/// Checks every wire verdict against a fresh `build_system` classifying the
/// same single sample; in traced runs these classifications are the
/// batch-1 `system.classify_b1` spans.
fn check(rig: &Rig, phases: &[&Phase], out: &mut Outcome, tr: &mut Tracer) {
    for (c, cfg) in rig.cfgs.iter().enumerate() {
        let mut system = build_system(cfg).expect("reference system builds");
        let expected: Vec<VerdictDto> = rig.pools[c]
            .iter()
            .map(|px| {
                let x = Tensor::from_vec(&[1, 1, IMAGE, IMAGE], px.clone());
                let v = tr.span("system.classify_b1", None, 0, || system.classify_batch(&x));
                if tr.enabled() {
                    // One vote is tens of ns, below what a span resolves:
                    // time a thousand on this sample's three-way split.
                    let class = v[0].output().unwrap_or(0);
                    let row = [Some(class), Some(class), Some((class + 1) % CLASSES)];
                    tr.span("voter.vote_x1000", None, 0, || {
                        for _ in 0..1000 {
                            std::hint::black_box(vote(system.scheme(), std::hint::black_box(&row)));
                        }
                    });
                }
                VerdictDto::from(&v[0])
            })
            .collect();
        for p in phases {
            for &(tenant, sample, verdict) in &p.verdicts {
                if tenant == c && verdict != expected[sample] {
                    out.fail(format!(
                        "serve-tcp: {} sample {sample}: wire verdict {verdict:?} != {:?}",
                        cfg.name, expected[sample]
                    ));
                    return;
                }
            }
        }
    }
}

/// The end-to-end run: eight rounds of a lo phase, a hi phase and a
/// closed-loop phase. Every lo phase replays the same arrival schedule, and
/// so does every hi phase, so each scheduled request is measured eight
/// times and its best latency counts (see `measure::BestOf`); the
/// closed-loop capacity is the best of the eight closed-loop phases.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let (mut rig, setup_s) = repeated_setup(SETUP_REPS, || setup(seed));
    let mut tr = Tracer::new(false);
    let mut phases = Vec::new();
    let (mut lo_best, mut hi_best, mut capacity) = (BestOf::new(), BestOf::new(), Samples::new());
    let [lo_s, hi_s, closed_s] = SHARES.map(|share| seconds * share / SUBPHASES as f64);
    for i in 0..SUBPHASES as u64 {
        let lo = phase(&mut rig, seed, 0, Some(RATE_LO), lo_s, &mut tr);
        let hi = phase(&mut rig, seed, 1, Some(RATE_HI), hi_s, &mut tr);
        let closed = phase(&mut rig, seed, 2 + i, None, closed_s, &mut tr);
        for &(key, ms) in &lo.keyed {
            lo_best.record(key, ms);
        }
        for &(key, ms) in &hi.keyed {
            hi_best.record(key, ms);
        }
        capacity.push((closed.sent - closed.failed) as f64 / closed.seconds);
        phases.extend([lo, hi, closed]);
    }
    let (lo_best, hi_best) = (lo_best.samples(), hi_best.samples());

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for p in &phases {
        out.attempted += p.sent;
        out.failed += p.failed;
    }
    let all: Vec<&Phase> = phases.iter().collect();
    check(&rig, &all, &mut out, &mut tr);
    drop(rig);

    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("ops_per_s", capacity.quantile(1.0), "op/s", capacity.len());
    out.metric("p50_ms", lo_best.median(), "ms", lo_best.len());
    out.metric("tail_ms", hi_best.quantile(0.9), "ms", hi_best.len());
    out
}

/// The traced run: traced lo and hi phases, with the codec replayed on
/// the same frames. For the named workload each traced lo phase follows an
/// untraced one with the same schedule, as the overhead baseline.
pub fn trace(seed: u64, seconds: f64, own: bool, tr: &mut Tracer) -> Outcome {
    let mut rig = setup(seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let chunks = if own { TRACE_CHUNKS } else { 1 };
    let phase_s = seconds / if own { 3.0 } else { 2.0 };
    let (rounds0, reqs0) = rig.stats();
    let mut base = Phase::default();
    let mut lo = Phase::default();
    for c in 0..chunks as u64 {
        let chunk_s = phase_s / chunks as f64;
        if own {
            base.absorb(phase(
                &mut rig,
                seed,
                c,
                Some(RATE_LO),
                chunk_s,
                &mut Tracer::new(false),
            ));
        }
        lo.absorb(phase(&mut rig, seed, c, Some(RATE_LO), chunk_s, tr));
    }
    let hi = phase(&mut rig, seed, 100, Some(RATE_HI), phase_s, tr);
    let (rounds1, reqs1) = rig.stats();
    for p in [&lo, &hi] {
        out.attempted += p.sent;
        out.failed += p.failed;
    }
    check(&rig, &[&lo, &hi], &mut out, tr);
    drop(rig);

    let mut replay = Tracer::with_epoch(tr.epoch(), true);
    let mut req_bytes = Samples::new();
    for (frame, reply) in lo
        .frames
        .iter()
        .chain(&hi.frames)
        .zip(lo.replies.iter().chain(&hi.replies))
    {
        req_bytes.push(frame.len() as f64);
        let decoded = replay.span("proto.decode_req", None, 0, || {
            read_frame::<_, Request>(&mut frame.as_slice())
        });
        if !matches!(decoded, Ok(Some(Request::Classify { .. }))) {
            out.fail("serve-tcp: a request frame does not decode".to_string());
        }
        let mut buf = Vec::new();
        let _ = replay.span("proto.encode_resp", None, 0, || {
            write_frame(&mut buf, reply)
        });
    }
    tr.absorb(replay);

    let p50 = |name: &str| tr.durations_us(name).median();
    let n = |name: &str| tr.durations_us(name).len();
    out.metric(
        "proto.req_bytes",
        req_bytes.median(),
        "count",
        req_bytes.len(),
    );
    for name in [
        "proto.encode_req",
        "proto.decode_req",
        "proto.encode_resp",
        "proto.decode_resp",
    ] {
        out.metric(&format!("{name}_us"), p50(name), "us", n(name));
    }
    let rtt = p50("server.rtt");
    out.metric("server.rtt_us", rtt, "us", n("server.rtt"));
    let residual =
        rtt - p50("proto.decode_req") - p50("system.classify_b1") - p50("proto.encode_resp");
    out.metric("server.residual_us", residual, "us", n("server.rtt"));
    out.metric(
        "server.rounds_per_req",
        (rounds1 - rounds0) as f64 / (reqs1 - reqs0).max(1) as f64,
        "rounds/req",
        (reqs1 - reqs0) as usize,
    );
    out.metric(
        "system.classify_b1_us",
        p50("system.classify_b1"),
        "us",
        n("system.classify_b1"),
    );
    out.metric(
        "voter.vote_ns",
        p50("voter.vote_x1000"),
        "ns",
        1000 * n("voter.vote_x1000"),
    );
    out.metric(
        "loadgen.lag_ms_lo",
        lo.lag_ms.quantile(0.9),
        "ms",
        lo.lag_ms.len(),
    );
    out.metric(
        "loadgen.lag_ms_hi",
        hi.lag_ms.quantile(0.9),
        "ms",
        hi.lag_ms.len(),
    );
    out.metric(
        "tcp.p90_ms_lo",
        lo.latency_ms.quantile(0.9),
        "ms",
        lo.latency_ms.len(),
    );
    out.metric(
        "tcp.p99_ms_lo",
        lo.latency_ms.quantile(0.99),
        "ms",
        lo.latency_ms.len(),
    );
    out.metric(
        "tcp.p50_ms_hi",
        hi.latency_ms.median(),
        "ms",
        hi.latency_ms.len(),
    );
    out.metric(
        "tcp.p99_ms_hi",
        hi.latency_ms.quantile(0.99),
        "ms",
        hi.latency_ms.len(),
    );
    if own {
        let untraced = base.latency_ms.median();
        out.metric(
            "trace.overhead_pct",
            100.0 * (lo.latency_ms.median() - untraced) / untraced,
            "%",
            lo.latency_ms.len(),
        );
    }
    out
}
