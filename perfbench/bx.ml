(** Measurement plumbing shared by the three workloads: the monotonic
    clock, sample summaries, process metadata, and the span recorder of
    the traced run. *)

(* -- clock ----------------------------------------------------------------- *)

(** Seconds on the monotonic clock (CLOCK_MONOTONIC via bechamel). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms s = s *. 1000.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- samples --------------------------------------------------------------- *)

(** Linear-interpolated percentile ([p] in 0..100); [nan] when empty. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = p /. 100.0 *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* -- host speed -------------------------------------------------------------- *)

(** The shared hosts this benchmark runs on change speed by up to 2x over
    tens of seconds, which moves every timing of a run together.  A fixed
    task that uses only the OCaml standard library — hashing and
    allocating 50k small arrays, then sorting them — is timed at points
    spread over the run.  It runs in a child process of its own
    ([perfbench --reference], started once per run), so it measures the
    host and not the heap or GC state of the program under test.

    A workload that keeps [w] domains busy (the two client connections
    and the daemon of daemon_rw) depends on how much of the host's
    second core it gets, which a one-domain task does not see.  So a
    sample also times the task on [2..!width] domains at once, and a
    sample taken while [w] domains were busy is scaled by the [w]-domain
    time.  Set-up and navigation run on one domain.

    Reported times are scaled by [nominal / reference time], i.e. they
    read as if the reference task took [nominal] seconds; rates are
    scaled inversely.  Raw values are printed alongside. *)
module Speed = struct
  let nominal = 0.050
  let width = ref 1 (* domains the timed phase keeps busy *)
  let samples = ref [] (* (midpoint, time on 1..!width domains) *)
  let spent = ref 0.0 (* wall time of all sampling *)
  let mu = Mutex.create ()

  let task () =
    let h = Hashtbl.create 1024 in
    for i = 0 to 49_999 do
      Hashtbl.replace h (i * 7919) (Array.make 4 i)
    done;
    let l = Hashtbl.fold (fun k v acc -> (k, v.(0)) :: acc) h [] in
    List.length (List.sort compare l)

  (** The task on [w] domains at once; wall seconds until all finish. *)
  let timed_task w =
    let t0 = now () in
    let others = List.init (w - 1) (fun _ -> Domain.spawn task) in
    ignore (Sys.opaque_identity (task ()));
    List.iter (fun d -> ignore (Domain.join d)) others;
    now () -. t0

  (** The child's side: run the task once to size its heap, then, for
      every width [w] read from standard input, print the task's time on
      [1..w] domains.  Ends at end of input. *)
  let reference () =
    ignore (Sys.opaque_identity (task ()));
    try
      while true do
        let w = max 1 (int_of_string (String.trim (input_line stdin))) in
        print_endline (String.concat " " (List.init w (fun i -> Printf.sprintf "%.9f" (timed_task (i + 1)))))
      done
    with End_of_file | Failure _ -> ()

  let child = ref None

  let stop () =
    Mutex.protect mu (fun () ->
        Option.iter (fun c -> ignore (Unix.close_process c)) !child;
        child := None)

  let () = at_exit stop

  (** Ask the reference child for one sample and record it; the child is
      started on first use.  A failed request leaves no sample. *)
  let sample () =
    Mutex.protect mu (fun () ->
        let t0 = now () in
        (try
           let ic, oc =
             match !child with
             | Some c -> c
             | None ->
               let exe = Sys.executable_name in
               let c = Unix.open_process_args exe [| exe; "--reference" |] in
               child := Some c;
               c
           in
           Printf.fprintf oc "%d\n%!" !width;
           match In_channel.input_line ic with
           | Some l -> (
             match List.map float_of_string_opt (String.split_on_char ' ' l) with
             | ts when List.length ts = !width && List.for_all Option.is_some ts ->
               samples := ((t0 +. now ()) /. 2.0, Array.of_list (List.map Option.get ts)) :: !samples
             | _ -> ())
           | None -> ()
         with Sys_error _ -> ());
        spent := !spent +. (now () -. t0))

  (** Sample when the reference has used under a tenth of [busy]. *)
  let maybe ~busy = if !spent < 0.1 *. busy then sample ()

  let time_on w (_, ts) = ts.(min w (Array.length ts) - 1)

  (** Seconds on this host per nominal second, over the whole run, for
      work on [width] domains. *)
  let factor ?(width = 1) () =
    match !samples with [] -> 1.0 | xs -> median (List.map (time_on width) xs) /. nominal

  (** The same around time [t]: the median of the five samples nearest
      to it. *)
  let local ?(width = 1) t =
    match !samples with
    | [] -> 1.0
    | xs ->
      let d (a, _) = Float.abs (a -. t) in
      let near = List.filteri (fun i _ -> i < 5) (List.sort (fun a b -> compare (d a) (d b)) xs) in
      median (List.map (time_on width) near) /. nominal
end

(** Set-up is timed [setup_rounds] times before the timed phase (the
    last set-up serves it) and as many times after it, so the median of
    [setup_s] spans the run. *)
let setup_rounds = 4

(** A timed sample: when it ended, and how long it took (seconds). *)
type lat = float * float

let timed_lat f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, (t1, t1 -. t0))

(** Durations scaled to the nominal host speed around each sample, for
    samples taken while [width] domains were busy. *)
let scaled ?width (xs : lat list) = List.map (fun (t, dt) -> dt /. Speed.local ?width t) xs

let raw (xs : lat list) = List.map snd xs

(* -- process facts --------------------------------------------------------- *)

(** VmHWM of a process in MB, from /proc ([pid] = "self" by default). *)
let peak_rss_mb ?(pid = "self") () =
  try
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) @@ fun ic ->
    let rec scan () =
      match In_channel.input_line ic with
      | None -> 0.0
      | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" float_of_int
        /. 1024.0
      | Some _ -> scan ()
    in
    scan ()
  with Sys_error _ -> 0.0

(** Every [XNFDB_*] variable in the environment. *)
let knobs () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 6 && String.sub kv 0 6 = "XNFDB_")
  |> List.sort compare

let git_rev () =
  let read path = try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
    match read (".git/" ^ String.sub h 5 (String.length h - 5)) with
    | Some r -> r
    | None -> "unknown")
  | Some h -> h
  | None -> "unknown (not a git checkout)"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Run directory for sockets and span dumps (inside the checkout). *)
let run_dir = "_perfbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

(* -- tracing --------------------------------------------------------------- *)

(** Spans recorded around calls into the layers' public functions: name
    ("layer.what"), request id, parent span, start and end.  Each domain
    keeps its own buffer; buffers are merged when the run ends.  A span
    with parent [-1] is a request root. *)
module Trace = struct
  type span = {
    name : string;
    req : int;
    id : int;
    parent : int;
    t0 : float;
    t1 : float;
  }

  type buf = {
    dom : int;
    mutable spans : span list;
    mutable stack : int list; (* open span ids, innermost first *)
    mutable req : int;
    mutable next : int;
    mutable on : bool;
  }

  let bufs = ref []
  let bufs_mu = Mutex.create ()
  let next_dom = Atomic.make 0

  let key =
    Domain.DLS.new_key (fun () ->
        let b =
          { dom = Atomic.fetch_and_add next_dom 1; spans = []; stack = []; req = 0; next = 0; on = false }
        in
        Mutex.protect bufs_mu (fun () -> bufs := b :: !bufs);
        b)

  let fresh_id b =
    b.next <- b.next + 1;
    (b.dom * 100_000_000) + b.next

  let record b name parent t0 t1 id =
    b.spans <- { name; req = b.req; id; parent; t0; t1 } :: b.spans

  (** A traced request: a root span around [f], with the spans opened
      inside it as descendants.  Untraced requests run [f] bare. *)
  let request ~traced ~req f =
    if not traced then f ()
    else begin
      let b = Domain.DLS.get key in
      let id = fresh_id b in
      b.req <- req;
      b.on <- true;
      b.stack <- [ id ];
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          record b "request" (-1) t0 (now ()) id;
          b.on <- false;
          b.stack <- [])
        f
    end

  let span name f =
    let b = Domain.DLS.get key in
    if not b.on then f ()
    else begin
      let id = fresh_id b in
      let parent = match b.stack with p :: _ -> p | [] -> -1 in
      b.stack <- id :: b.stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          record b name parent t0 (now ()) id;
          b.stack <- List.tl b.stack)
        f
    end

  let all () = List.concat_map (fun b -> b.spans) !bufs

  let layer_of name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

  (** Per-layer self time (span minus its children) and unattributed
      request time (root minus its direct children), both as mean
      milliseconds per traced request. *)
  let attribution () =
    let spans = all () in
    let child_time = Hashtbl.create 1024 in
    List.iter
      (fun (s : span) ->
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child_time s.parent
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
      spans;
    let self = Hashtbl.create 16 in
    let roots = ref 0 and unattributed = ref 0.0 in
    List.iter
      (fun (s : span) ->
        let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
        let own = s.t1 -. s.t0 -. covered in
        if s.parent = -1 then begin
          incr roots;
          unattributed := !unattributed +. own
        end
        else
          let l = layer_of s.name in
          Hashtbl.replace self l (own +. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
      spans;
    let per_req x = if !roots = 0 then 0.0 else ms x /. float_of_int !roots in
    ( (fun layer -> per_req (Option.value ~default:0.0 (Hashtbl.find_opt self layer))),
      per_req !unattributed )

  (** Write every span as one TSV line (times in ns from the first). *)
  let dump path =
    let spans = List.sort (fun (a : span) b -> compare a.t0 b.t0) (all ()) in
    let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
    Out_channel.with_open_text path (fun oc ->
        output_string oc "req\tid\tparent\tname\tstart_ns\tend_ns\n";
        List.iter
          (fun (s : span) ->
            Printf.fprintf oc "%d\t%d\t%d\t%s\t%.0f\t%.0f\n" s.req s.id s.parent s.name
              ((s.t0 -. base) *. 1e9) ((s.t1 -. base) *. 1e9))
          spans)
end

(* -- workload outcome ------------------------------------------------------ *)

(** An end-to-end metric: its value scaled to the nominal host speed,
    and as measured.  Ungated metrics are printed but left out of the
    JSON result (see README.md). *)
type metric = { name : string; value : float; raw : float; unit_ : string; gated : bool }

let m name unit_ value = { name; value; raw = value; unit_; gated = true }

(** A timing statistic of [xs], in milliseconds ("ms") or seconds. *)
let lat_metric ?width name unit_ stat (xs : lat list) =
  let conv = if unit_ = "ms" then ms else Fun.id in
  { name; unit_; value = conv (stat (scaled ?width xs)); raw = conv (stat (raw xs)); gated = true }

(** Completed requests per second of the summed request times. *)
let rate_metric name (xs : lat list) =
  let n = float_of_int (List.length xs) in
  { name; unit_ = "1/s"; value = n /. sum (scaled xs); raw = n /. sum (raw xs); gated = true }

(** The gated end-to-end metrics, in the order BENCHMARK.json lists them.
    Extractions and lookups ran while [width] domains were busy;
    set-ups and navigations on one. *)
let e2e_metrics ~width ~setups ~extract ~navigate ~lookups ~ops ~rss =
  let p90 = percentile 90.0 in
  [
    lat_metric "setup_s" "s" median setups;
    lat_metric ~width "extract_p50_ms" "ms" median extract;
    lat_metric ~width "extract_p90_ms" "ms" p90 extract;
    lat_metric "navigate_p50_ms" "ms" median navigate;
    lat_metric ~width "lookup_p50_ms" "ms" median lookups;
    lat_metric ~width "lookup_p90_ms" "ms" p90 lookups;
    ops;
    m "peak_rss_mb" "MB" rss;
  ]

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : (string * float) list; (* per-layer values of a traced run *)
  notes : string list; (* human-readable lines printed before the result *)
}

(** Failure bookkeeping shared by a workload's loops: exceptions and
    mismatches are counted, reported once each, and never abort. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_errors : string list }

let tally () = { attempted = 0; failed = 0; first_errors = [] }
let tally_mu = Mutex.create ()

let fail t what =
  Mutex.protect tally_mu (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.first_errors < 5 then t.first_errors <- what :: t.first_errors)

let attempt t = Mutex.protect tally_mu (fun () -> t.attempted <- t.attempted + 1)

let check t ok what = if not ok then fail t what

(** [f ()], counting an exception as a failure of [what]. *)
let guard t what f =
  match f () with
  | r -> Some r
  | exception e ->
    fail t (what ^ ": " ^ Printexc.to_string e);
    None

(** Named sample lists, for the per-layer numbers of a traced run. *)
module Acc = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 32
  let get t k = Option.value ~default:[] (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (v :: get t k)
  let total t k = sum (get t k)
end
