(** oo1_extract: the paper's extract-then-navigate client at OO1 scale.
    In-process, closed loop, one caller.  A session extracts the whole
    [parts_co] graph cold (result cache bypassed through [~cache:false];
    the compile is a plan-cache hit), loads it into a CO-cache workspace
    and runs the OO1 lookups and depth-7 traversals.  Point lookups on
    [parts] run between sessions. *)

module Db = Engine.Database
module H = Xnf.Hetstream
module C = Xnf.Xnf_compile
module Trace = Bx.Trace

(** Fresh process-wide cache state, data, the view, and a warm-up
    extraction that pays the first compile (NDV statistics). *)
let setup () =
  Executor.Result_cache.clear ();
  Executor.Result_cache.reset_stats ();
  Xnf.Xnf_ivm.reset ();
  let db = Workloads.Oo1.generate Kit.oo1_params in
  ignore (Db.exec db Kit.view_ddl);
  ignore (C.extract ~cache:false (C.compile db Kit.parts_text));
  db

(** One timed set-up, with a host-speed sample on either side of it. *)
let timed_setup () =
  Gc.compact ();
  Bx.Speed.sample ();
  let r = Bx.timed_lat setup in
  Bx.Speed.sample ();
  r

(** Point lookups on [parts] after each session. *)
let lookups_per_session = 10

let run ~seed ~seconds ~trace =
  let tally = Bx.tally () in
  let setups = List.init (Bx.setup_rounds - 1) (fun _ -> snd (timed_setup ())) in
  let db, dt = timed_setup () in
  let setups = dt :: setups in
  let lookups = Kit.lookups ~seed db Kit.parts_table in
  (* references: one cold serial extraction's wire bytes, its expected
     component counts, and the navigation oracle from the base tables *)
  let reference = H.serialize (C.run ~cache:false db Kit.parts_text) in
  let nref = Kit.oo1_ref db in
  let n_conns = Array.fold_left (fun a l -> a + List.length l) 0 nref.kids in
  Bx.check tally
    (H.counts (H.deserialize reference) = [ ("xpart", Kit.n_parts); ("link", n_conns) ])
    "reference stream component counts differ from the base tables";
  let acc = Bx.Acc.create () in
  let rc0 = Executor.Result_cache.stats () in
  let plan_hits = ref 0 and plan_misses = ref 0 in
  let extract = ref [] and navigate = ref [] and session = ref [] in
  let traced_wall = ref [] and plain_wall = ref [] in
  let busy = ref 0.0 and i = ref 0 in
  Bx.Speed.sample ();
  while !busy < seconds do
    let traced = trace && !i mod 2 = 0 in
    let nav_seed = (seed * 7919) + !i in
    Bx.attempt tally;
    let pc0 = Db.cache_stats db in
    let t0 = Bx.now () in
    (match
       Bx.guard tally "session" (fun () ->
           Trace.request ~traced ~req:!i (fun () ->
               let c = Trace.span "xnf.compile" (fun () -> C.compile db Kit.parts_text) in
               let s =
                 if traced then begin
                   let s, p = Kit.exec_assemble c in
                   Bx.Acc.add acc "exec" p.exec_s;
                   Bx.Acc.add acc "assemble" p.assemble_s;
                   Bx.Acc.add acc "scanned" (float_of_int p.scanned);
                   Bx.Acc.add acc "skipped" (float_of_int p.skipped);
                   Bx.Acc.add acc "chunks" (float_of_int p.chunks);
                   Bx.Acc.add acc "qerror" p.qerror;
                   Bx.Acc.add acc "rules" (float_of_int (Kit.rules_fired c));
                   s
                 end
                 else C.extract ~cache:false c
               in
               let t1 = Bx.now () in
               let nav = Kit.navigate ~seed:nav_seed s in
               (s, t1, nav)))
     with
    | Some (s, t1, nav) ->
      let t2 = Bx.now () in
      let pc1 = Db.cache_stats db in
      plan_hits := !plan_hits + pc1.plan_hits - pc0.plan_hits;
      plan_misses := !plan_misses + pc1.plan_misses - pc0.plan_misses;
      extract := (t1, t1 -. t0) :: !extract;
      navigate := (t2, t2 -. t1) :: !navigate;
      session := (t2, t2 -. t0) :: !session;
      busy := !busy +. (t2 -. t0);
      (if traced then traced_wall else plain_wall) := (t2 -. t0) :: !(if traced then traced_wall else plain_wall);
      (* checks, outside the session interval *)
      let bytes, enc_s = Bx.timed (fun () -> H.serialize s) in
      Bx.check tally (String.equal bytes reference) "extracted stream differs from the reference";
      Bx.check tally ((nav.sum, nav.visits) = Kit.nav_expect nref ~seed:nav_seed)
        "navigation lookup sum or visit count differs from the oracle";
      if traced then begin
        let _, dec_s = Bx.timed (fun () -> H.deserialize bytes) in
        Bx.Acc.add acc "encode" enc_s;
        Bx.Acc.add acc "decode" dec_s;
        Bx.Acc.add acc "load" nav.load_s;
        Bx.Acc.add acc "nav" nav.nav_s;
        Bx.Acc.add acc "visits" (float_of_int (Kit.n_lookups + nav.visits))
      end
    | None -> busy := !busy +. (Bx.now () -. t0));
    for _ = 1 to lookups_per_session do
      Kit.lookup_step ~tally lookups
    done;
    Bx.Speed.maybe ~busy:!busy;
    incr i
  done;
  let rc1 = Executor.Result_cache.stats () in
  let rss = Bx.peak_rss_mb () in
  ignore (Sys.opaque_identity db);
  let setups = List.init Bx.setup_rounds (fun _ -> snd (timed_setup ())) @ setups in
  let n = List.length !session in
  let e2e =
    Bx.e2e_metrics ~width:1 ~setups ~extract:!extract ~navigate:!navigate ~lookups:lookups.lats
      ~ops:(Bx.rate_metric "ops_per_s" !session) ~rss
  in
  let layer =
    if not trace then []
    else
      let per name = Bx.ms (Bx.mean (Bx.Acc.get acc name)) in
      let chunks = Bx.Acc.total acc "chunks" in
      [
        ("engine.plan_cache_hit_frac", Bx.frac !plan_hits (!plan_hits + !plan_misses));
        ("starq.rules_fired", Bx.mean (Bx.Acc.get acc "rules"));
        ("executor.exec_ms", per "exec");
        ("executor.rows_scanned", Bx.mean (Bx.Acc.get acc "scanned"));
        ("executor.chunks_skipped_frac", if chunks = 0.0 then 0.0 else Bx.Acc.total acc "skipped" /. chunks);
        ("xnf.assemble_ms", per "assemble");
        ( "executor.result_cache_hit_frac",
          Bx.frac (rc1.hits - rc0.hits) (rc1.hits + rc1.misses - rc0.hits - rc0.misses) );
        ("executor.result_cache_evictions", float_of_int (rc1.evictions - rc0.evictions));
        ("optimizer.max_qerror", List.fold_left Float.max 1.0 (Bx.Acc.get acc "qerror"));
        ("cocache.load_ms", per "load");
        ("cocache.navigate_ms", per "nav");
        ("cocache.visits_per_s", Bx.Acc.total acc "visits" /. Bx.Acc.total acc "nav");
        ("xnf.encode_ms", per "encode");
        ("xnf.decode_ms", per "decode");
        ("trace.overhead_frac", (Bx.median !traced_wall /. Bx.median !plain_wall) -. 1.0);
      ]
  in
  {
    Bx.attempted = tally.attempted;
    failed = tally.failed;
    e2e;
    layer;
    notes =
      [
        Printf.sprintf "oo1_extract: %d parts, %d conns; %d sessions (%d traced), %d point lookups between them"
          Kit.n_parts n_conns n (List.length !traced_wall) (List.length lookups.lats);
      ]
      @ tally.first_errors;
  }
