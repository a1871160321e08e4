//! Endpoint implementations. Every handler is a pure function of the
//! shared [`ServeState`] and one [`Request`] — all policy (timeouts,
//! shedding, keep-alive) lives in the connection layer, which keeps these
//! trivially testable without sockets.

use crate::http::{Request, Response};
use crate::router::{route, Route};
use crate::state::{ReloadOutcome, ServeState};
use metamess_core::DatasetId;
use metamess_search::{BrowseTree, Query, SearchExplain, SearchHit};
use metamess_telemetry::trace::{self, TraceContext};
use serde::Serialize;

/// Dispatches one request; returns the route label (for metrics) and the
/// response.
///
/// Every dispatch runs inside a request-scoped trace: a fresh
/// [`TraceContext`] (head-sampled at the state's `--trace-sample-rate`)
/// opens the root span, the layers underneath attach their children
/// through the thread-local builder, and the finished trace lands in the
/// flight recorder (sampled) and the slow-query log (root ≥ `--slow-ms`,
/// sampling-exempt). The response carries the id back to the caller in
/// `X-Metamess-Trace-Id` whenever tracing was live — with telemetry
/// disabled the whole detour is one branch and no header is added, which
/// keeps the zero-allocation budget intact.
pub fn handle(state: &ServeState, req: &Request) -> (&'static str, Response) {
    let ctx = TraceContext::start(state.trace_sample_rate());
    let tracing = trace::begin(&ctx, "request");
    let matched = route(&req.method, &req.path);
    let label = matched.label();
    let response = match matched {
        Route::Search => search(state, req),
        Route::Dataset(path) => dataset(state, &path),
        Route::Browse => browse(state),
        Route::Healthz => healthz(state),
        Route::Metrics => metrics_exposition(state),
        Route::DebugTraces => debug_traces(req),
        Route::Reload => reload(state),
        Route::MethodNotAllowed(allow) => {
            error_json(405, &format!("{} does not support {}", req.path, req.method))
                .with_header("allow", allow)
        }
        Route::NotFound => error_json(404, &format!("no route for {}", req.path)),
    };
    if tracing {
        trace::end(state.trace_slow_micros());
        return (label, response.with_header("x-metamess-trace-id", ctx.trace_id_hex()));
    }
    (label, response)
}

fn error_json(status: u16, message: &str) -> Response {
    #[derive(Serialize)]
    struct ErrorBody<'a> {
        error: &'a str,
    }
    Response::json(status, render(&ErrorBody { error: message }))
}

/// Serializes a response body; the types involved cannot fail to encode.
fn render<T: Serialize>(body: &T) -> String {
    serde_json::to_string(body).unwrap_or_else(|e| format!("{{\"error\":\"encoding: {e}\"}}"))
}

/// `POST /search`: either `{"q": "<text query>", "limit": n?}` in the
/// poster's query language, or a full structured [`Query`] document (the
/// JSON form a serialized `Query` round-trips through). A query that does
/// not parse, or that [`Query::check`] refuses, is a 400.
fn search(state: &ServeState, req: &Request) -> Response {
    let value: serde_json::Value = match serde_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => return error_json(400, &format!("invalid json body: {e}")),
    };
    let query = match value.get("q").and_then(serde_json::Value::as_str) {
        Some(text) => match Query::parse(text) {
            Ok(q) => match value.get("limit").and_then(serde_json::Value::as_u64) {
                Some(limit) => q.limit(usize::try_from(limit).unwrap_or(usize::MAX)),
                None => q,
            },
            Err(e) => return error_json(400, &format!("unparseable query: {e}")),
        },
        None => match serde_json::from_value::<Query>(value) {
            Ok(q) => match q.check() {
                Ok(()) => q,
                Err(e) => return error_json(400, &format!("refused structured query: {e}")),
            },
            Err(e) => return error_json(400, &format!("invalid structured query: {e}")),
        },
    };

    #[derive(Serialize)]
    struct SearchBody<'a> {
        generation: u64,
        count: usize,
        hits: &'a [SearchHit],
        #[serde(skip_serializing_if = "Option::is_none")]
        explain: Option<&'a SearchExplain>,
    }

    // `--remote`: scatter-gather across the shardd fleet. The body gains
    // an explicit `partial` field and degraded responses are additionally
    // marked with the `X-Metamess-Partial` header so callers that only
    // look at headers still notice.
    if let Some(remote) = state.remote() {
        #[derive(Serialize)]
        struct RemoteSearchBody<'a> {
            generation: u64,
            count: usize,
            partial: bool,
            hits: &'a [SearchHit],
        }
        if req.query_flag("explain") {
            return error_json(400, "explain is not available over --remote");
        }
        return match remote.search(&query) {
            Ok(out) => {
                let resp = Response::json(
                    200,
                    render(&RemoteSearchBody {
                        generation: out.generation,
                        count: out.hits.len(),
                        partial: out.partial,
                        hits: &out.hits,
                    }),
                );
                if out.partial {
                    resp.with_header("x-metamess-partial", "true")
                } else {
                    resp
                }
            }
            Err(e) => error_json(502, &format!("remote search failed: {e}")),
        };
    }

    let epoch = state.epoch();
    if req.query_flag("explain") {
        let (hits, explain) = epoch.engine.search_explain(&query);
        Response::json(
            200,
            render(&SearchBody {
                generation: epoch.generation,
                count: hits.len(),
                hits: &hits[..],
                explain: Some(&explain),
            }),
        )
    } else {
        let hits = epoch.engine.search(&query);
        Response::json(
            200,
            render(&SearchBody {
                generation: epoch.generation,
                count: hits.len(),
                hits: &hits[..],
                explain: None,
            }),
        )
    }
}

/// `GET /datasets/<archive-relative-path>`: the full catalog entry, decoded
/// from the row the engine holds.
fn dataset(state: &ServeState, path: &str) -> Response {
    let epoch = state.epoch();
    match epoch.engine.dataset(DatasetId::from_path(path)) {
        Some(feature) => {
            #[derive(Serialize)]
            struct DatasetBody<'a> {
                generation: u64,
                dataset: &'a metamess_core::DatasetFeature,
            }
            Response::json(
                200,
                render(&DatasetBody { generation: epoch.generation, dataset: &feature }),
            )
        }
        None => error_json(404, &format!("no dataset at path {path:?}")),
    }
}

/// `GET /browse`: drill-down trees with per-concept dataset counts.
fn browse(state: &ServeState) -> Response {
    #[derive(Serialize)]
    struct BrowseBody<'a> {
        generation: u64,
        taxonomies: &'a [BrowseTree],
    }
    let epoch = state.epoch();
    Response::json(
        200,
        render(&BrowseBody { generation: epoch.generation, taxonomies: &epoch.browse }),
    )
}

/// `GET /healthz`: liveness plus which store state is being served.
fn healthz(state: &ServeState) -> Response {
    // The body is cached on the state keyed by (epoch, reloads) — see
    // `ServeState::healthz_body` — so the hottest route skips
    // serialization in the steady state.
    Response::json(200, state.healthz_body().as_ref().to_string())
}

/// `GET /metrics`: Prometheus exposition of the store's persisted
/// snapshot merged with this process's live registry — by construction the
/// same bytes `metamess stats --prometheus` renders for the same snapshot.
fn metrics_exposition(state: &ServeState) -> Response {
    let snap = crate::expose::store_snapshot(state.store_dir());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        extra_headers: Vec::new(),
        body: snap.render_prometheus().into_bytes(),
    }
}

/// `GET /debug/traces`: the flight recorder's recent traces, newest
/// first. `?slow=1` reads the slow-query log instead; `?id=<32 hex>`
/// looks one trace up in both rings (404 when evicted or never captured).
fn debug_traces(req: &Request) -> Response {
    let traces: Vec<metamess_telemetry::OwnedTrace> = if let Some(id) = req.query.get("id") {
        let Some(tid) = trace::parse_trace_id(id) else {
            return error_json(400, &format!("invalid trace id {id:?} (expected hex)"));
        };
        match trace::flight().find(tid).or_else(|| trace::slow_log().find(tid)) {
            Some(rec) => vec![rec.to_owned_trace()],
            None => {
                return error_json(
                    404,
                    &format!("no trace {id} in the flight recorder or slow-query log"),
                )
            }
        }
    } else if req.query_flag("slow") {
        trace::slow_log().snapshot().iter().map(|r| r.to_owned_trace()).collect()
    } else {
        trace::flight().snapshot().iter().map(|r| r.to_owned_trace()).collect()
    };
    Response::json(200, trace::render_traces_json(&traces))
}

/// `POST /admin/reload`: force a reload check now. `"reloaded"` when a new
/// epoch was swapped in — the generation moved, or only `vocabulary.json`
/// did (then `previous_generation` equals `generation`) — `"unchanged"`
/// otherwise. A failed read keeps the current epoch serving and reports
/// 503 (the store is transiently unavailable — e.g. an `fsck --repair`
/// holds the exclusive lock).
fn reload(state: &ServeState) -> Response {
    #[derive(Serialize)]
    struct ReloadBody {
        outcome: &'static str,
        generation: u64,
        #[serde(skip_serializing_if = "Option::is_none")]
        previous_generation: Option<u64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        epoch: Option<u64>,
    }
    match state.reload() {
        Ok(ReloadOutcome::Unchanged { generation }) => Response::json(
            200,
            render(&ReloadBody {
                outcome: "unchanged",
                generation,
                previous_generation: None,
                epoch: None,
            }),
        ),
        Ok(ReloadOutcome::Reloaded { from, to, epoch }) => Response::json(
            200,
            render(&ReloadBody {
                outcome: "reloaded",
                generation: to,
                previous_generation: Some(from),
                epoch: Some(epoch),
            }),
        ),
        Err(e) => error_json(503, &format!("reload failed; previous epoch still serving: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::{DatasetFeature, DurableCatalog, StoreOptions};
    use std::path::PathBuf;

    fn fixture_state(name: &str) -> ServeState {
        let d = std::env::temp_dir().join(format!("metamess-hand-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        let mut f = DatasetFeature::new("2014/07/saturn01_ctd.csv");
        f.variables.push(metamess_core::VariableFeature::new("water_temperature"));
        s.put(f).unwrap();
        s.put(DatasetFeature::new("2014/07/jetty_met.csv")).unwrap();
        s.checkpoint().unwrap();
        ServeState::open(PathBuf::from(&d)).unwrap()
    }

    fn post(path: &str, query: &[(&str, &str)], body: &str) -> Request {
        let mut req = Request { method: "POST".into(), path: path.into(), ..Request::default() };
        for (k, v) in query {
            req.query.insert((*k).into(), (*v).into());
        }
        req.body = body.as_bytes().to_vec();
        req
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), ..Request::default() }
    }

    fn body_json(resp: &Response) -> serde_json::Value {
        serde_json::from_slice(&resp.body).expect("response body is json")
    }

    #[test]
    fn search_text_query() {
        let state = fixture_state("search");
        let (label, resp) =
            handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        assert_eq!((label, resp.status), ("search", 200));
        let v = body_json(&resp);
        assert!(v["count"].as_u64().unwrap() >= 1, "{v}");
        assert!(v.get("explain").is_none());
        assert_eq!(v["hits"][0]["path"].as_str(), Some("2014/07/saturn01_ctd.csv"));
    }

    #[test]
    fn search_explain_flag_adds_breakdown() {
        let state = fixture_state("explain");
        let (_, resp) = handle(
            &state,
            &post("/search", &[("explain", "1")], r#"{"q":"with water_temperature"}"#),
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert!(v["explain"].as_object().is_some(), "{v}");
    }

    #[test]
    fn search_structured_query_round_trips() {
        let state = fixture_state("structured");
        let q = Query::new().with_variable("water_temperature", None);
        let (_, resp) = handle(&state, &post("/search", &[], &serde_json::to_string(&q).unwrap()));
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        assert!(body_json(&resp)["count"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn search_survives_absurd_limits() {
        // A hostile limit used to reach TopK::with_capacity unclamped and
        // panic the worker; both the text-query and structured paths must
        // clamp instead.
        let state = fixture_state("hugelimit");
        for body in [
            r#"{"q":"with water_temperature","limit":18446744073709551615}"#,
            r#"{"q":"with water_temperature","limit":0}"#,
            r#"{"limit":18446744073709551615}"#,
        ] {
            let (_, resp) = handle(&state, &post("/search", &[], body));
            assert_eq!(resp.status, 200, "body {body:?}");
            assert!(body_json(&resp)["count"].as_u64().unwrap() <= 2);
        }
    }

    #[test]
    fn search_rejects_bad_bodies() {
        let state = fixture_state("bad");
        for body in ["not json", "{\"q\": \"near banana\"}", "{\"spatial\": 7}"] {
            let (_, resp) = handle(&state, &post("/search", &[], body));
            assert_eq!(resp.status, 400, "body {body:?}");
        }
    }

    #[test]
    fn dataset_found_and_missing() {
        let state = fixture_state("dataset");
        let (label, resp) = handle(&state, &get("/datasets/2014/07/jetty_met.csv"));
        assert_eq!((label, resp.status), ("dataset", 200));
        assert_eq!(body_json(&resp)["dataset"]["path"].as_str(), Some("2014/07/jetty_met.csv"));
        let (_, resp) = handle(&state, &get("/datasets/nope.csv"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn browse_and_healthz() {
        let state = fixture_state("browse");
        let (_, resp) = handle(&state, &get("/browse"));
        assert_eq!(resp.status, 200);
        assert!(body_json(&resp)["taxonomies"].as_array().is_some());
        let (_, resp) = handle(&state, &get("/healthz"));
        let v = body_json(&resp);
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert_eq!(v["datasets"].as_u64(), Some(2));
        assert_eq!(v["shards"].as_u64(), Some(1), "default layout is unsharded");
    }

    #[test]
    fn sharded_state_serves_and_reports_shards() {
        let d = std::env::temp_dir().join(format!("metamess-hand-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        for i in 0..6 {
            let mut f = DatasetFeature::new(format!("2014/07/site{i}.csv"));
            f.variables.push(metamess_core::VariableFeature::new("water_temperature"));
            s.put(f).unwrap();
        }
        s.checkpoint().unwrap();
        drop(s);
        let spec = metamess_search::ShardSpec::new(4, metamess_search::Partitioner::Hash);
        let state = ServeState::open_sharded(PathBuf::from(&d), spec).unwrap();
        let (_, resp) = handle(&state, &get("/healthz"));
        assert_eq!(body_json(&resp)["shards"].as_u64(), Some(4));
        let (_, resp) = handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp)["count"].as_u64().unwrap(), 6);
    }

    #[test]
    fn remote_search_serves_partial_results_with_marker() {
        use metamess_remote::{
            FaultAction, FaultTransport, PartialPolicy, RemoteOptions, RemoteShardSet, ShardHost,
        };
        use metamess_search::{Partitioner, ShardSpec};
        use metamess_vocab::Vocabulary;
        use std::sync::Arc;
        use std::time::Duration;

        let d = std::env::temp_dir().join(format!("metamess-hand-remote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        for i in 0..8 {
            let mut f = DatasetFeature::new(format!("2014/07/site{i}.csv"));
            f.variables.push(metamess_core::VariableFeature::new("water_temperature"));
            s.put(f).unwrap();
        }
        s.checkpoint().unwrap();

        // Host both shards in-process behind a fault transport; the
        // coordinator is the production one.
        let vocab = Vocabulary::observatory_default();
        let spec = ShardSpec::new(2, Partitioner::Hash);
        let catalog = s.catalog();
        let hosts: Vec<Arc<ShardHost>> = (0..2)
            .map(|k| Arc::new(ShardHost::build(&catalog, vocab.clone(), spec, k).unwrap()))
            .collect();
        let survivor_datasets = hosts[0].len() as u64;
        drop(s);
        let transport = Arc::new(FaultTransport::new(hosts));
        let opts = RemoteOptions {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            partial_policy: PartialPolicy::Degrade,
            ..RemoteOptions::default()
        };
        let set = RemoteShardSet::with_transport(transport.clone(), opts).unwrap();
        let mut state = ServeState::open(PathBuf::from(&d)).unwrap();
        state.set_remote(Arc::new(set));

        // Healthy: full answer, no partial marker, remote healthz rows.
        let (_, resp) = handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v["count"].as_u64(), Some(8));
        assert_eq!(v["partial"].as_bool(), Some(false));
        assert!(!resp.extra_headers.iter().any(|(n, _)| n == "x-metamess-partial"));
        let (_, resp) = handle(&state, &get("/healthz"));
        let v = body_json(&resp);
        assert_eq!(v["shards"].as_u64(), Some(2));
        let rows = v["shard_states"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["mode"].as_str(), Some("remote"));
        assert_eq!(rows[0]["state"].as_str(), Some("healthy"));

        // Kill shard 1: degrade policy serves the survivors, marked.
        transport.push_actions(1, &[FaultAction::Timeout; 3]);
        let (_, resp) = handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v["partial"].as_bool(), Some(true));
        assert_eq!(
            v["count"].as_u64().unwrap(),
            survivor_datasets,
            "exactly the healthy shard's hits are served"
        );
        assert!(
            resp.extra_headers.iter().any(|(n, v)| n == "x-metamess-partial" && v == "true"),
            "degraded responses carry the partial header"
        );
        let (_, resp) = handle(&state, &get("/healthz"));
        let v = body_json(&resp);
        assert_eq!(v["shard_states"][1]["state"].as_str(), Some("degraded"), "one failed query");

        // explain cannot be computed across the wire — clean 400.
        let (_, resp) = handle(
            &state,
            &post("/search", &[("explain", "1")], r#"{"q":"with water_temperature"}"#),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn metrics_matches_snapshot_renderer() {
        let state = fixture_state("metrics");
        let (_, resp) = handle(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let expected = crate::expose::store_snapshot(state.store_dir()).render_prometheus();
        // The exposition is exactly the shared renderer's output (modulo
        // live metrics recorded between the two snapshots; assert on the
        // stable prefix property by re-rendering).
        assert!(resp.body.starts_with(expected.split('\n').next().unwrap_or("").as_bytes()));
    }

    #[test]
    fn unknown_route_and_method_mismatch() {
        let state = fixture_state("routes");
        let (label, resp) = handle(&state, &get("/nope"));
        assert_eq!((label, resp.status), ("not_found", 404));
        let (label, resp) = handle(&state, &get("/search"));
        assert_eq!((label, resp.status), ("method_not_allowed", 405));
        assert!(resp.extra_headers.iter().any(|(n, v)| n == "allow" && v == "POST"));
    }

    fn trace_id_header(resp: &Response) -> String {
        resp.extra_headers
            .iter()
            .find(|(n, _)| n == "x-metamess-trace-id")
            .map(|(_, v)| v.clone())
            .expect("every response carries X-Metamess-Trace-Id")
    }

    #[test]
    fn every_response_carries_a_trace_id_header() {
        let state = fixture_state("traceheader");
        let requests = [
            get("/healthz"),
            get("/browse"),
            get("/nope"),
            get("/debug/traces"),
            post("/search", &[], r#"{"q":"with water_temperature"}"#),
        ];
        for req in requests {
            let (_, resp) = handle(&state, &req);
            let id = trace_id_header(&resp);
            assert_eq!(id.len(), 32, "{} -> {id}", req.path);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
    }

    #[test]
    fn debug_traces_finds_a_search_by_id() {
        let state = fixture_state("tracedebug");
        let (_, resp) = handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        let id = trace_id_header(&resp);
        let mut req = get("/debug/traces");
        req.query.insert("id".into(), id.clone());
        let (label, resp) = handle(&state, &req);
        assert_eq!((label, resp.status), ("debug_traces", 200));
        let v = body_json(&resp);
        let t = &v["traces"][0];
        assert_eq!(t["trace_id"].as_str(), Some(id.as_str()));
        assert_eq!(t["spans"][0]["name"].as_str(), Some("request"), "root span is the request");
        let names: Vec<&str> =
            t["spans"].as_array().unwrap().iter().map(|s| s["name"].as_str().unwrap()).collect();
        assert!(names.contains(&"search.plan"), "{names:?}");
        assert!(names.contains(&"shard.probe"), "{names:?}");
        assert!(t["shards_visited"].as_u64().unwrap() >= 1, "{t}");
        // unknown and malformed ids are distinguished
        let mut req = get("/debug/traces");
        req.query.insert("id".into(), "0000000000000000000000000000dead".into());
        let (_, resp) = handle(&state, &req);
        assert_eq!(resp.status, 404);
        let mut req = get("/debug/traces");
        req.query.insert("id".into(), "not-hex".into());
        let (_, resp) = handle(&state, &req);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn slow_log_captures_unsampled_requests() {
        let state = fixture_state("traceslow");
        // Threshold 0 makes every request "slow"; rate 0.0 samples nothing
        // — the slow log must still capture it (sampling-exempt).
        state.set_trace_config(0, 0.0);
        let (_, resp) = handle(&state, &post("/search", &[], r#"{"q":"with water_temperature"}"#));
        let id = trace_id_header(&resp);
        let mut req = get("/debug/traces");
        req.query.insert("slow".into(), "1".into());
        let (_, resp) = handle(&state, &req);
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        let captured = v["traces"]
            .as_array()
            .unwrap()
            .iter()
            .find(|t| t["trace_id"].as_str() == Some(id.as_str()))
            .expect("slow log captured the unsampled request");
        assert_eq!(captured["slow"].as_bool(), Some(true));
        assert_eq!(captured["sampled"].as_bool(), Some(false));
    }

    #[test]
    fn admin_reload_reports_unchanged() {
        let state = fixture_state("reload");
        let (label, resp) = handle(&state, &post("/admin/reload", &[], ""));
        assert_eq!((label, resp.status), ("reload", 200));
        assert_eq!(body_json(&resp)["outcome"].as_str(), Some("unchanged"));
    }
}
