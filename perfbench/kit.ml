(** Pieces shared by the workloads: the OO1 database and its
    extract-then-navigate client, point lookups with the reference their
    rows are checked against, and the layer probes of the traced run. *)

open Relcore
module Db = Engine.Database
module H = Xnf.Hetstream
module Oo1 = Workloads.Oo1
module Rng = Workloads.Rng

(* -- OO1 ------------------------------------------------------------------- *)

let n_parts = 20_000

(** Every workload runs on fixed databases: the generators' own default
    seeds.  [--seed] draws the requests, so runs on different seeds
    measure the same data under different request streams. *)
let oo1_params = { Oo1.default with n_parts }
let parts_text = Oo1.parts_graph_query
let view_ddl = "CREATE VIEW parts_co AS " ^ parts_text

(** One navigation session over a loaded CO: OO1 lookup of [n_lookups]
    random parts, then [n_traversals] depth-7 traversals. *)
let n_lookups = 1000
let n_traversals = 10
let depth = 7

let int_rows db sql = List.map (Array.map Value.as_int) (Db.query_rows db sql)

(** The navigation oracle, read from the base tables with plain SQL:
    each part's [x] and its connection targets. *)
type oo1_ref = { xs : int array; kids : int list array }

let oo1_ref db =
  let parts = int_rows db "SELECT pid, x FROM parts" in
  let top = List.fold_left (fun a r -> max a r.(0)) 0 parts in
  let xs = Array.make (top + 1) 0 and kids = Array.make (top + 1) [] in
  List.iter (fun r -> xs.(r.(0)) <- r.(1)) parts;
  List.iter (fun r -> kids.(r.(0)) <- r.(1) :: kids.(r.(0))) (int_rows db "SELECT cfrom, cto FROM conns");
  { xs; kids }

(** Expected (lookup checksum, traversal visits) of {!navigate}. *)
let nav_expect r ~seed =
  let rng = Rng.create seed in
  let sum = ref 0 in
  for _ = 1 to n_lookups do
    sum := !sum + r.xs.(1 + Rng.int rng n_parts)
  done;
  let memo = Hashtbl.create 4096 in
  let rec visits p d =
    if d = 0 then 1
    else
      match Hashtbl.find_opt memo (p, d) with
      | Some v -> v
      | None ->
        let v = List.fold_left (fun a c -> a + visits c (d - 1)) 1 r.kids.(p) in
        Hashtbl.add memo (p, d) v;
        v
  in
  let total = ref 0 in
  for _ = 1 to n_traversals do
    total := !total + visits (1 + Rng.int rng n_parts) depth
  done;
  (!sum, !total)

type nav = { load_s : float; nav_s : float; sum : int; visits : int }

(** Load the stream into a CO-cache workspace, then run the OO1 lookups
    and traversals over it. *)
let navigate ~seed stream =
  let ws, load_s =
    Bx.timed (fun () -> Bx.Trace.span "cocache.load" (fun () -> Cocache.Workspace.of_stream stream))
  in
  let (sum, visits), nav_s =
    Bx.timed (fun () ->
        Bx.Trace.span "cocache.navigate" (fun () ->
            let index = Oo1.build_pid_index ws in
            let rng = Rng.create seed in
            let sum = Oo1.lookup ~index ~rng ~n_parts ~n:n_lookups in
            let visits = ref 0 in
            for _ = 1 to n_traversals do
              visits := !visits + Oo1.traverse (Hashtbl.find index (1 + Rng.int rng n_parts)) ~depth
            done;
            (sum, !visits)))
  in
  { load_s; nav_s; sum; visits }

(* -- point lookups ----------------------------------------------------------- *)

(** A point-lookup target: a table keyed by [key] over [1..n], and the
    columns a lookup returns. *)
type table = { name : string; key : string; cols : string list }

let parts_table = { name = "parts"; key = "pid"; cols = [ "ptype"; "build" ] }
let bom_part_table = { name = "part"; key = "pid"; cols = [ "pname" ] }

let lookup_sql t k =
  Printf.sprintf "SELECT %s FROM %s WHERE %s = %d" (String.concat ", " (t.key :: t.cols)) t.name t.key k

(** Reference rows for lookups, read once from the generated data by a
    full scan.  Keys [1..n_keys] all exist. *)
type lref = { rows : (int, Tuple.t) Hashtbl.t; n_keys : int }

let lookup_ref db t =
  let rows = Hashtbl.create 4096 in
  List.iter
    (fun r -> Hashtbl.replace rows (Value.as_int r.(0)) r)
    (Db.query_rows db (Printf.sprintf "SELECT %s FROM %s" (String.concat ", " (t.key :: t.cols)) t.name));
  { rows; n_keys = Hashtbl.length rows }

let lookup_ok r k rows =
  match (rows, Hashtbl.find_opt r.rows k) with
  | [ got ], Some want -> Tuple.equal got want
  | _ -> false

(** Seeded point lookups that an in-process workload interleaves between
    its own requests, on its own database.  They are read-only.  They
    bypass the plan cache ([~cache:false]), so the workload's plan-cache
    contents and counters stay its own; a point lookup shares no
    subexpression, so it never reaches the result cache.  Each
    {!lookup_step} times one lookup and checks its row outside the
    timing. *)
type lookups = { db : Db.t; t : table; r : lref; rng : Random.State.t; mutable lats : Bx.lat list }

let lookups ~seed db t = { db; t; r = lookup_ref db t; rng = Random.State.make [| seed; 77 |]; lats = [] }

let lookup_step ~tally l =
  let k = 1 + Random.State.int l.rng l.r.n_keys in
  Bx.attempt tally;
  match
    Bx.guard tally "lookup" (fun () -> Bx.timed_lat (fun () -> Db.query_rows ~cache:false l.db (lookup_sql l.t k)))
  with
  | Some (rows, dt) ->
    l.lats <- dt :: l.lats;
    Bx.check tally (lookup_ok l.r k rows) "lookup result differs from reference"
  | None -> ()

(** Extraction-path layer probe, run outside request intervals: the
    compile path split into parse, XNF semantics, XNF rewrite and the
    rest of [compile_ast] (NF rules and planning). *)
let compile_probe db text =
  let ast, parse_s = Bx.timed (fun () -> Xnf.Xnf_parser.parse text) in
  let op, sem_s = Bx.timed (fun () -> Xnf.Xnf_semantic.analyze (Db.catalog db) ast) in
  let rw_s =
    if Xnf.Xnf_ast.is_recursive ast then 0.0 else snd (Bx.timed (fun () -> Xnf.Xnf_rewrite.rewrite op))
  in
  let _, all_s = Bx.timed (fun () -> Xnf.Xnf_compile.compile_ast db ast) in
  (parse_s, sem_s, rw_s, Float.max 0.0 (all_s -. sem_s -. rw_s))

type exec_probe = { exec_s : float; assemble_s : float; scanned : int; skipped : int; chunks : int; qerror : float }

(** Run every output plan of [c] under one fresh context with per-operator
    statistics attached, then assemble the stream from the finished
    batches.  Spans are recorded when inside a traced request. *)
let exec_assemble (c : Xnf.Xnf_compile.compiled) =
  let module Exec = Executor.Exec in
  let ctx = Exec.make_ctx ~result_cache:false () in
  let ops = Executor.Opstats.create (List.map (fun (n, (p : Optimizer.Plan.compiled)) -> (n, p.plan)) c.plans) in
  ctx.analyze <- Some ops;
  let batches, exec_s =
    Bx.timed (fun () ->
        Bx.Trace.span "executor.exec" (fun () ->
            List.map (fun (n, p) -> (n, Exec.run_batches ~ctx p)) c.plans))
  in
  let stream, assemble_s =
    Bx.timed (fun () ->
        Bx.Trace.span "xnf.assemble" (fun () -> Xnf.Xnf_compile.assemble c (fun n -> List.assoc n batches)))
  in
  let qerror =
    Array.fold_left
      (fun a (op : Executor.Opstats.op) -> if op.opens > 0 then Float.max a (Executor.Opstats.q_error op) else a)
      1.0 ops.ops
  in
  ( stream,
    {
      exec_s;
      assemble_s;
      scanned = ctx.rows_scanned;
      skipped = ctx.chunks_skipped;
      chunks = ctx.chunks_scanned + ctx.chunks_skipped;
      qerror;
    } )

let rules_fired (c : Xnf.Xnf_compile.compiled) = List.fold_left (fun a (_, k) -> a + k) 0 c.rewrite_stats

(** Codec probe on an extracted stream: encode, decode, bytes. *)
let codec_probe s =
  let bytes, enc_s = Bx.timed (fun () -> H.serialize s) in
  let _, dec_s = Bx.timed (fun () -> H.deserialize bytes) in
  (bytes, enc_s, dec_s)
