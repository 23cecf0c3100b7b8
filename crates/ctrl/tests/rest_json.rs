//! The REST northbound's JSON, pinned: every request and response type
//! writes exactly the text the derive attributes it replaced used to produce
//! (`tag = "type" | "op"`, `rename_all = "snake_case"`, `default`), reads it
//! back, and reads the literal bodies the demo, the tests and the bench
//! bins post; malformed bodies are answered 400 and leave the server up.

use flexric::server::{Server, ServerConfig};
use flexric_ctrl::slicing::{
    self, AlgoReq, AssocReq, ConfReq, CtrlReply, DelReq, SliceApp, SliceDto, SliceParamsDto,
};
use flexric_ctrl::traffic::{RlcStatsDto, TcCmdDto, TcCmdReq, TcStatsDto};
use flexric_e2ap::{GlobalRicId, Plmn};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;
use flexric_xapp::http::HttpClient;
use flexric_xapp::introspect::{SmCodecSlots, SmEntry};
use flexric_xapp::json::{self, FromJson, ToJson};

/// `value` writes `text`, and `text` reads back to something that writes
/// `text` again.
fn pinned<T: ToJson + FromJson>(value: &T, text: &str) {
    assert_eq!(value.to_json().to_string(), text);
    let back: T = json::from_slice(text.as_bytes()).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(back.to_json().to_string(), text, "round trip");
}

#[test]
fn every_rest_type_round_trips_through_its_pinned_text() {
    pinned(
        &SliceParamsDto::NvsCapacity { share_pct: 66.0 },
        r#"{"type":"nvs_capacity","share_pct":66.0}"#,
    );
    pinned(
        &SliceParamsDto::NvsRate { rate_mbps: 5.5, ref_mbps: 50.0 },
        r#"{"type":"nvs_rate","rate_mbps":5.5,"ref_mbps":50.0}"#,
    );
    pinned(&SliceParamsDto::StaticRb { lo: 0, hi: 24 }, r#"{"type":"static_rb","lo":0,"hi":24}"#);
    let slice = SliceDto {
        id: 3,
        label: "op-a".into(),
        params: SliceParamsDto::StaticRb { lo: 1, hi: 2 },
        sched: "rr".into(),
    };
    let slice_text =
        r#"{"id":3,"label":"op-a","params":{"type":"static_rb","lo":1,"hi":2},"sched":"rr"}"#;
    pinned(&slice, slice_text);
    pinned(&AlgoReq { agent: 2, algo: "nvs".into() }, r#"{"agent":2,"algo":"nvs"}"#);
    pinned(
        &ConfReq { agent: 0, slices: vec![slice] },
        &format!(r#"{{"agent":0,"slices":[{slice_text}]}}"#),
    );
    pinned(
        &AssocReq { agent: 0, assoc: vec![(0x4601, 0), (0x4602, 1)] },
        r#"{"agent":0,"assoc":[[17921,0],[17922,1]]}"#,
    );
    pinned(&DelReq { agent: 1, ids: vec![4, 5] }, r#"{"agent":1,"ids":[4,5]}"#);
    pinned(
        &CtrlReply { ok: false, detail: "no \"SC\" SM".into() },
        r#"{"ok":false,"detail":"no \"SC\" SM"}"#,
    );
    pinned(
        &RlcStatsDto {
            agent: 0,
            tstamp_ms: u64::MAX,
            rnti: 17921,
            drb: 1,
            buffer_bytes: 2,
            sojourn_us_avg: 3,
            sojourn_us_max: 4,
            dropped_pdus: 5,
        },
        r#"{"agent":0,"tstamp_ms":18446744073709551615,"rnti":17921,"drb":1,"buffer_bytes":2,"sojourn_us_avg":3,"sojourn_us_max":4,"dropped_pdus":5}"#,
    );
    pinned(
        &TcStatsDto {
            agent: 0,
            tstamp_ms: 9,
            rnti: 1,
            drb: 2,
            queues: vec![(0, 1, 2, 3)],
            pacer_rate_kbps: 7,
        },
        r#"{"agent":0,"tstamp_ms":9,"rnti":1,"drb":2,"queues":[[0,1,2,3]],"pacer_rate_kbps":7}"#,
    );
    for (cmd, text) in [
        (TcCmdDto::AddQueue { id: 1, cap_bytes: 0 }, r#"{"op":"add_queue","id":1,"cap_bytes":0}"#),
        (TcCmdDto::DelQueue { id: 1 }, r#"{"op":"del_queue","id":1}"#),
        (
            TcCmdDto::AddRule {
                id: 7,
                queue: 1,
                dst_port: Some(5004),
                proto: Some(17),
                src_ip: None,
                dst_ip: None,
                src_port: None,
            },
            r#"{"op":"add_rule","id":7,"queue":1,"dst_port":5004,"proto":17,"src_ip":null,"dst_ip":null,"src_port":null}"#,
        ),
        (TcCmdDto::DelRule { id: 7 }, r#"{"op":"del_rule","id":7}"#),
        (
            TcCmdDto::SetBdpPacer { target_delay_us: 10_000 },
            r#"{"op":"set_bdp_pacer","target_delay_us":10000}"#,
        ),
        (TcCmdDto::ClearPacer, r#"{"op":"clear_pacer"}"#),
    ] {
        pinned(&cmd, text);
        pinned(
            &TcCmdReq { agent: 0, rnti: 1, drb: 2, cmd },
            &format!(r#"{{"agent":0,"rnti":1,"drb":2,"cmd":{text}}}"#),
        );
    }
    let slots =
        SmCodecSlots { trigger: true, action: false, indication: true, ctrl: false, delta: true };
    let slots_text =
        r#"{"trigger":true,"action":false,"indication":true,"ctrl":false,"delta":true}"#;
    pinned(&slots, slots_text);
    pinned(
        &SmEntry {
            oid: "flexric.sm.hw".into(),
            label: "flexric.sm.hw@1.0".into(),
            major: 1,
            minor: 0,
            ran_function_id: 9,
            per: true,
            fb: true,
            codecs: slots,
        },
        &format!(
            r#"{{"oid":"flexric.sm.hw","label":"flexric.sm.hw@1.0","major":1,"minor":0,"ran_function_id":9,"per":true,"fb":true,"codecs":{slots_text}}}"#
        ),
    );
}

/// The bodies `examples/slicing_demo.rs`, `tests/integration.rs`,
/// `fig13_slicing` and the TC xApp post, as they go over the wire.
#[test]
fn posted_bodies_read_as_their_attributes_prescribed() {
    let algo: AlgoReq = json::from_slice(br#"{"agent": 0, "algo": "nvs"}"#).unwrap();
    assert_eq!((algo.agent, algo.algo.as_str()), (0, "nvs"));

    let conf: ConfReq = json::from_slice(
        br#"{"agent": 0, "slices": [
            {"id": 0, "label": "gold", "params": {"type": "nvs_capacity", "share_pct": 66.0}},
            {"id": 1, "params": {"type": "nvs_rate", "rate_mbps": 5, "ref_mbps": 50.0}, "sched": "mt"}
        ]}"#,
    )
    .unwrap();
    assert_eq!(conf.slices.len(), 2);
    assert_eq!(conf.slices[0].label, "gold");
    assert_eq!(conf.slices[0].sched, "pf", "`sched` defaults to pf");
    assert!(
        matches!(conf.slices[0].params, SliceParamsDto::NvsCapacity { share_pct } if share_pct == 66.0)
    );
    assert_eq!(conf.slices[1].label, "", "`label` defaults to empty");
    assert!(
        matches!(conf.slices[1].params, SliceParamsDto::NvsRate { rate_mbps, .. } if rate_mbps == 5.0),
        "an integer is a valid f64"
    );

    let assoc: AssocReq =
        json::from_slice(br#"{"agent": 0, "assoc": [[17921, 0], [17922, 1], [17923, 1]]}"#)
            .unwrap();
    assert_eq!(assoc.assoc, [(0x4601, 0), (0x4602, 1), (0x4603, 1)]);

    let reply: CtrlReply = json::from_slice(br#"{"ok":true}"#).unwrap();
    assert!(reply.ok && reply.detail.is_empty(), "`detail` defaults to empty");

    let req: TcCmdReq = json::from_slice(
        br#"{"agent":0,"rnti":17921,"drb":1,
            "cmd":{"op":"add_rule","id":1,"queue":1,"dst_port":5004,"proto":17}}"#,
    )
    .unwrap();
    assert!(matches!(
        req.cmd,
        TcCmdDto::AddRule { queue: 1, dst_port: Some(5004), proto: Some(17), src_ip: None, .. }
    ));
    let cmd: TcCmdDto = json::from_slice(br#"{"op":"add_queue","id":1}"#).unwrap();
    assert!(matches!(cmd, TcCmdDto::AddQueue { id: 1, cap_bytes: 0 }), "`cap_bytes` defaults to 0");

    // What the attributes rejected is still rejected.
    assert!(json::from_slice::<AlgoReq>(br#"{"agent": 0}"#).is_err(), "missing field");
    assert!(json::from_slice::<AlgoReq>(br#"{"agent": -1, "algo": "nvs"}"#).is_err());
    assert!(json::from_slice::<AssocReq>(br#"{"agent": 0, "assoc": [[70000, 0]]}"#).is_err());
    assert!(
        json::from_slice::<TcCmdDto>(br#"{"op":"AddQueue","id":1}"#).is_err(),
        "snake_case only"
    );
    assert!(json::from_slice::<SliceParamsDto>(br#"{"share_pct": 50.0}"#).is_err(), "no tag");
    // A UE scheduler that is not one of the three is refused by name, not
    // run as proportional fair.
    for sched in ["RR", "wfq"] {
        let body = format!(
            r#"{{"agent": 0, "slices": [{{"id": 0, "params": {{"type": "nvs_capacity", "share_pct": 50.0}}, "sched": "{sched}"}}]}}"#
        );
        let refused =
            json::from_slice::<ConfReq>(body.as_bytes()).map(|c| c.slices[0].sched.clone());
        assert!(refused.as_ref().is_err_and(|e| e.to_string().contains(sched)), "{refused:?}");
    }
}

#[test]
fn malformed_bodies_are_answered_400_and_the_server_stays_up() {
    let (app, latest) = SliceApp::new(SmCodec::Flatb, 1000);
    let mut cfg =
        ServerConfig::new(GlobalRicId::new(Plmn::TEST, 1), TransportAddr::Mem("rest-json".into()));
    cfg.tick_ms = None;
    let server = Server::spawn(cfg, vec![Box::new(app)]).unwrap();
    let rest = slicing::spawn_rest("127.0.0.1:0", server.clone(), latest).unwrap();
    let addr = rest.addr.to_string();

    let deep = "[".repeat(10_000);
    let bodies: &[&[u8]] = &[
        br#"{"agent": 0, "algo": "nv"#,                // truncated
        deep.as_bytes(),                               // nested 10 000 deep
        br#"{"agent": 0, "algo": "\ud800"}"#,          // lone surrogate
        br#"{"agent": 0, "algo": "\q"}"#,              // bad escape
        br#"{"agent": 1e999, "algo": "nvs"}"#,         // number out of range
        br#"{"agent": 0, "agent": 1, "algo": "nvs"}"#, // duplicate key
        br#"{"agent": 0, "algo": "nvs"} trailing"#,
        b"\xff\xfe", // not UTF-8
        b"",
    ];
    for body in bodies {
        for path in ["/slice/algo", "/slice/conf", "/slice/assoc", "/slice/del"] {
            let (status, _) = HttpClient::request(&addr, "POST", path, body).unwrap();
            let shown = String::from_utf8_lossy(&body[..body.len().min(40)]);
            assert_eq!(status, 400, "{path} <- {shown}");
        }
    }
    let (status, body) = HttpClient::get(&addr, "/agents").unwrap();
    assert_eq!((status, &body[..]), (200, &b"[]"[..]), "still serving");
    server.stop();
}
