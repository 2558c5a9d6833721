(** adhoc_co: ad-hoc CO queries with fresh literals.  In-process, closed
    loop, one caller.  Requests rotate over three families — a shop
    customer range, an org department range (Fig. 1, with USING mapping
    tables) and the recursive bom CO of one assembly — whose literals
    come from a seeded Zipf draw, so hot keys repeat while the distinct
    results reached exceed the result cache.  One point lookup on the bom
    [part] table follows each request. *)

module Db = Engine.Database
module H = Xnf.Hetstream
module C = Xnf.Xnf_compile
module Trace = Bx.Trace

let shop_width = 40 (* customers per shop request *)
let org_width = 10 (* departments per org request *)

let shop_text lo =
  Printf.sprintf
    "OUT OF xcust AS (SELECT * FROM customer WHERE cid >= %d AND cid < %d),\n\
    \       xorder AS orders,\n\
    \       xitem AS lineitem,\n\
    \       xproduct AS product,\n\
    \       placed AS (RELATE xcust VIA PLACED, xorder WHERE xcust.cid = xorder.ocid),\n\
    \       orderline AS (RELATE xorder VIA CONTAINS, xitem WHERE xorder.oid = xitem.lioid),\n\
    \       itemref AS (RELATE xitem VIA REFERS_TO, xproduct WHERE xitem.lipid = xproduct.pid)\n\
     TAKE *"
    lo (lo + shop_width)

let org_text lo =
  Printf.sprintf
    "OUT OF xdept AS (SELECT * FROM dept WHERE dno >= %d AND dno < %d),\n\
    \       xemp AS emp,\n\
    \       xproj AS proj,\n\
    \       xskills AS skills,\n\
    \       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno),\n\
    \       ownership AS (RELATE xdept VIA HAS, xproj WHERE xdept.dno = xproj.pdno),\n\
    \       empproperty AS (RELATE xemp VIA POSSESSES, xskills USING empskills es\n\
    \                       WHERE xemp.eno = es.eseno AND es.essno = xskills.sno),\n\
    \       projproperty AS (RELATE xproj VIA NEEDS, xskills USING projskills ps\n\
    \                        WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)\n\
     TAKE *"
    lo (lo + org_width)

let bom_text pid =
  Printf.sprintf
    "OUT OF asmroot AS (SELECT * FROM part WHERE pid = %d),\n\
    \       xpart AS part,\n\
    \       topconn AS (RELATE asmroot VIA HOLDS, xpart USING contains c\n\
    \                   WHERE holds.pid = c.parent AND c.child = xpart.pid),\n\
    \       subconn AS (RELATE xpart VIA SUB, xpart USING contains c\n\
    \                   WHERE sub.pid = c.parent AND c.child = xpart.pid)\n\
     TAKE *"
    pid

(** A query family: its database, and a draw over its literals — Zipf
    with exponent [skew] over ranks mapped to literals through a seeded
    permutation; [skew = 0] is uniform. *)
type family = { name : string; db : Db.t; keys : int array; cdf : float array; text : int -> string }

let family ~seed ~skew name db keys text =
  let n = Array.length keys in
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { name; db; keys; cdf; text }

let draw f rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length f.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  f.keys.(!lo)

let bom_params = { Workloads.Bom.default with n_assemblies = 50; levels = 6 }

let range a b = Array.init (b - a + 1) (fun i -> a + i)

let setup seed =
  Executor.Result_cache.clear ();
  Executor.Result_cache.reset_stats ();
  Xnf.Xnf_ivm.reset ();
  let shop =
    Workloads.Shop.generate { Workloads.Shop.default with n_customers = 3000; n_products = 2000 }
  in
  let org = Workloads.Org.generate { Workloads.Org.default with n_depts = 500 } in
  let bom = Workloads.Bom.generate bom_params in
  let tops = List.map (fun r -> r.(0)) (Kit.int_rows bom "SELECT pid FROM part WHERE level = 0") in
  let fams =
    [|
      family ~seed ~skew:0.5 "shop" shop (range 1 (3000 - shop_width + 1)) shop_text;
      family ~seed ~skew:1.0 "org" org (range 1 (500 - org_width + 1)) org_text;
      (* recursive COs are never result-cached; a uniform draw spreads
         the timings over every assembly *)
      family ~seed ~skew:0.0 "bom" bom (Array.of_list tops) bom_text;
    |]
  in
  (* warm-up: every family compiled once (first-compile statistics),
     then the cacheable families extracted over a fixed walk of their
     literals until the result cache is full and evicting.  The warm-up
     does not depend on the seed, so every seed sets up the same work. *)
  Array.iter (fun f -> ignore (C.run f.db (f.text (Array.fold_left min max_int f.keys)))) fams;
  let walk f stride k = f.text (1 + (k * stride mod Array.length f.keys)) in
  let n = ref 0 in
  while (Executor.Result_cache.stats ()).evictions = 0 && !n < 1500 do
    (* the literals are [1..count]; each stride is coprime with its
       family's count (2961 and 491), so the texts are distinct *)
    (if !n mod 2 = 0 then ignore (C.run shop (walk fams.(0) 37 (!n / 2)))
     else ignore (C.run org (walk fams.(1) 13 (!n / 2))));
    incr n
  done;
  fams

(** Client-side navigation: load the stream into a workspace and walk
    every node reachable from the roots; returns the nodes visited and
    the load and walk times. *)
let navigate s =
  let ws, load_s = Bx.timed (fun () -> Trace.span "cocache.load" (fun () -> Cocache.Workspace.of_stream s)) in
  let visits, nav_s =
    Bx.timed @@ fun () ->
    Trace.span "cocache.navigate" (fun () ->
      let seen = Hashtbl.create 1024 in
      let rec go (n : Cocache.Conode.t) =
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.add seen n.id ();
          List.iter (fun (c : Cocache.Conode.conn) -> Array.iter go c.children) n.out_conns
        end
      in
      List.iter (fun r -> List.iter go (Cocache.Workspace.nodes ws r)) s.H.header.root_components;
      Hashtbl.length seen)
  in
  (visits, load_s, nav_s)

let rows_of s = List.length (List.filter (function H.Row _ -> true | H.Conn _ -> false) s.H.items)

(** One timed set-up, with a host-speed sample on either side of it. *)
let timed_setup seed =
  Gc.compact ();
  Bx.Speed.sample ();
  let r = Bx.timed_lat (fun () -> setup seed) in
  Bx.Speed.sample ();
  r

let run ~seed ~seconds ~trace =
  let tally = Bx.tally () in
  let setups = List.init (Bx.setup_rounds - 1) (fun _ -> snd (timed_setup seed)) in
  let fams, dt = timed_setup seed in
  let setups = dt :: setups in
  let lookups = Kit.lookups ~seed fams.(2).db Kit.bom_part_table in
  (* each distinct request text is recomputed once with both caches
     bypassed; every result is compared with that reference's bytes *)
  let references = Hashtbl.create 1024 in
  let reference f text =
    match Hashtbl.find_opt references text with
    | Some d -> d
    | None ->
      let d = Digest.string (H.serialize (C.run ~cache:false f.db text)) in
      Hashtbl.add references text d;
      d
  in
  let rng = Random.State.make [| seed; 2 |] in
  let acc = Bx.Acc.create () in
  let rc0 = Executor.Result_cache.stats () in
  let plan_hits = ref 0 and plan_misses = ref 0 in
  let extract = ref [] and navigate_t = ref [] and request = ref [] in
  let traced_wall = ref [] and plain_wall = ref [] in
  let fam_hits = Array.make 3 0 and fam_lat = Array.make 3 [] in
  let busy = ref 0.0 and i = ref 0 and cycle_nav = ref 0.0 in
  Bx.Speed.sample ();
  while !busy < seconds do
    let f = fams.(!i mod 3) in
    let text = f.text (draw f rng) in
    let traced = trace && !i mod 2 = 0 in
    Bx.attempt tally;
    let pc0 = Db.cache_stats f.db and rm = (Executor.Result_cache.stats ()).misses in
    let t0 = Bx.now () in
    (match
       Bx.guard tally f.name (fun () ->
           Trace.request ~traced ~req:!i (fun () ->
               let c = Trace.span "xnf.compile" (fun () -> C.compile f.db text) in
               let s = Trace.span (if c.recursive then "xnf.recursive" else "xnf.extract") (fun () -> C.extract c) in
               let t1 = Bx.now () in
               let nav = navigate s in
               (c, s, t1, nav)))
     with
    | Some (c, s, t1, (visits, load_s, nav_s)) ->
      let t2 = Bx.now () in
      let pc1 = Db.cache_stats f.db in
      plan_hits := !plan_hits + pc1.plan_hits - pc0.plan_hits;
      plan_misses := !plan_misses + pc1.plan_misses - pc0.plan_misses;
      extract := (t1, t1 -. t0) :: !extract;
      let fi = !i mod 3 in
      fam_lat.(fi) <- (t1 -. t0) :: fam_lat.(fi);
      if (not c.recursive) && (Executor.Result_cache.stats ()).misses = rm then fam_hits.(fi) <- fam_hits.(fi) + 1;
      cycle_nav := !cycle_nav +. (t2 -. t1);
      request := (t2, t2 -. t0) :: !request;
      busy := !busy +. (t2 -. t0);
      (if traced then traced_wall else plain_wall) := (t2 -. t0) :: !(if traced then traced_wall else plain_wall);
      (* checks, outside the request interval: a cold recompute with
         both caches bypassed, and every node reachable from the roots *)
      let want = reference f text in
      Bx.check tally
        (Digest.equal (Digest.string (H.serialize s)) want)
        (f.name ^ ": stream differs from its cache:false recompute");
      Bx.check tally (visits = rows_of s) (f.name ^ ": navigation did not reach every component row");
      if traced then begin
        let plan_miss = pc1.plan_misses > pc0.plan_misses in
        let p, sm, rw, pl = if plan_miss then Kit.compile_probe f.db text else (0.0, 0.0, 0.0, 0.0) in
        Bx.Acc.add acc "parse" p;
        Bx.Acc.add acc "semantic" sm;
        Bx.Acc.add acc "rewrite" rw;
        Bx.Acc.add acc "plan" pl;
        Bx.Acc.add acc "rules" (float_of_int (Kit.rules_fired c));
        if c.recursive then Bx.Acc.add acc "recursive" (t1 -. t0)
        else if (Executor.Result_cache.stats ()).misses > rm then begin
          let _, e = Kit.exec_assemble c in
          Bx.Acc.add acc "exec" e.exec_s;
          Bx.Acc.add acc "assemble" e.assemble_s;
          Bx.Acc.add acc "scanned" (float_of_int e.scanned);
          Bx.Acc.add acc "skipped" (float_of_int e.skipped);
          Bx.Acc.add acc "chunks" (float_of_int e.chunks);
          Bx.Acc.add acc "qerror" e.qerror
        end
        else List.iter (fun k -> Bx.Acc.add acc k 0.0) [ "exec"; "assemble"; "scanned" ];
        let _, enc, dec = Kit.codec_probe s in
        Bx.Acc.add acc "load" load_s;
        Bx.Acc.add acc "nav" nav_s;
        Bx.Acc.add acc "visits" (float_of_int visits);
        Bx.Acc.add acc "encode" enc;
        Bx.Acc.add acc "decode" dec
      end
    | None -> busy := !busy +. (Bx.now () -. t0));
    (* navigation is timed per rotation: one CO of each family *)
    if !i mod 3 = 2 then begin
      navigate_t := (Bx.now (), !cycle_nav) :: !navigate_t;
      cycle_nav := 0.0
    end;
    Kit.lookup_step ~tally lookups;
    Bx.Speed.maybe ~busy:!busy;
    incr i
  done;
  let rc1 = Executor.Result_cache.stats () in
  let rss = Bx.peak_rss_mb () in
  ignore (Sys.opaque_identity fams);
  let setups = List.init Bx.setup_rounds (fun _ -> snd (timed_setup seed)) @ setups in
  let n = List.length !request in
  let e2e =
    Bx.e2e_metrics ~width:1 ~setups ~extract:!extract ~navigate:!navigate_t ~lookups:lookups.lats
      ~ops:(Bx.rate_metric "ops_per_s" !request) ~rss
  in
  let layer =
    if not trace then []
    else
      let per name = Bx.ms (Bx.mean (Bx.Acc.get acc name)) in
      let chunks = Bx.Acc.total acc "chunks" in
      [
        ("xnf.parse_ms", per "parse");
        ("xnf.semantic_ms", per "semantic");
        ("xnf.rewrite_ms", per "rewrite");
        ("optimizer.plan_ms", per "plan");
        ("starq.rules_fired", Bx.mean (Bx.Acc.get acc "rules"));
        ("engine.plan_cache_hit_frac", Bx.frac !plan_hits (!plan_hits + !plan_misses));
        ("executor.exec_ms", per "exec");
        ("executor.rows_scanned", Bx.mean (Bx.Acc.get acc "scanned"));
        ("executor.chunks_skipped_frac", if chunks = 0.0 then 0.0 else Bx.Acc.total acc "skipped" /. chunks);
        ("xnf.assemble_ms", per "assemble");
        ("xnf.recursive_ms", per "recursive");
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
  let rc = Executor.Result_cache.stats () in
  {
    Bx.attempted = tally.attempted;
    failed = tally.failed;
    e2e;
    layer;
    notes =
      [
        Printf.sprintf
          "adhoc_co: shop 3000 customers/2000 products, org 500 depts, bom 50 assemblies x 6 levels; %d requests \
           (%d traced); result cache %d hits / %d misses / %d evictions in the timed phase, %d entries, %.1f MB \
           resident; %d point lookups on bom part"
          n (List.length !traced_wall) (rc1.hits - rc0.hits) (rc1.misses - rc0.misses) (rc1.evictions - rc0.evictions)
          rc.entries
          (float_of_int rc.bytes /. 1048576.0)
          (List.length lookups.lats);
        String.concat "; "
          (Array.to_list
             (Array.mapi
                (fun k f ->
                  Printf.sprintf "%s: %d requests, %d result-cache hits, raw p50 %.2f ms" f.name
                    (List.length fam_lat.(k)) fam_hits.(k)
                    (Bx.ms (Bx.median fam_lat.(k))))
                fams));
      ]
      @ tally.first_errors;
  }
