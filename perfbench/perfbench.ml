(** The repository benchmark.

    [perfbench --workload NAME --seed N --seconds S --trace 0|1] runs one
    workload, checks every output, prints its numbers, and ends with one
    JSON line: [correct], [attempted], [failed] and the metrics — the
    end-to-end ones with [--trace 0], the per-layer ones of the traced
    run with [--trace 1].  [--serve --sock PATH] is the daemon process of
    daemon_rw; [--reference] is the host-speed reference of {!Bx.Speed}. *)

let workloads =
  [ ("oo1_extract", W_oo1.run); ("adhoc_co", W_adhoc.run); ("daemon_rw", W_daemon.run) ]

let e2e_names =
  [
    "setup_s"; "extract_p50_ms"; "extract_p90_ms"; "navigate_p50_ms"; "lookup_p50_ms"; "lookup_p90_ms";
    "ops_per_s"; "peak_rss_mb";
  ]

(** Per-layer metrics of the traced run.  A workload in which a layer
    does no work reports 0 for it. *)
let layer_spec =
  [
    ("xnf.parse_ms", "ms"); ("xnf.semantic_ms", "ms"); ("xnf.rewrite_ms", "ms"); ("optimizer.plan_ms", "ms");
    ("starq.rules_fired", "count"); ("engine.plan_cache_hit_frac", "frac"); ("executor.exec_ms", "ms");
    ("executor.rows_scanned", "count"); ("executor.chunks_skipped_frac", "frac"); ("xnf.assemble_ms", "ms");
    ("xnf.recursive_ms", "ms"); ("executor.result_cache_hit_frac", "frac");
    ("executor.result_cache_evictions", "count"); ("optimizer.max_qerror", "ratio"); ("cocache.load_ms", "ms");
    ("cocache.navigate_ms", "ms"); ("cocache.visits_per_s", "1/s"); ("xnf.encode_ms", "ms");
    ("xnf.decode_ms", "ms"); ("net.bytes_per_extract", "bytes"); ("net.memo_hit_frac", "frac");
    ("net.memo_extract_p50_ms", "ms"); ("xnf.ivm_extract_p50_ms", "ms"); ("relcore.snapshot_reads", "count");
    ("relcore.snapshot_fallbacks", "count"); ("engine.commits_per_batch", "count"); ("xnf.self_ms", "ms");
    ("executor.self_ms", "ms"); ("cocache.self_ms", "ms"); ("net.self_ms", "ms"); ("trace.unattributed_ms", "ms");
    ("trace.overhead_frac", "frac");
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (oo1_extract|adhoc_co|daemon_rw) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--serve" :: rest -> opts (("serve", "1") :: acc) rest
    | "--reference" :: rest -> opts (("reference", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  if List.mem_assoc "reference" o then Bx.Speed.reference ()
  else if List.mem_assoc "serve" o then W_daemon.serve ~sock:(get "sock")
  else begin
    let name = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
    let knobs = Bx.knobs () in
    Printf.printf
      "meta: {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"git_rev\": %s, \"nproc\": %d, \
       \"knobs\": [%s], \"knobs_default\": %b}\n%!"
      (Bx.json_str name) seed seconds trace (Bx.json_str (Bx.git_rev ()))
      (Domain.recommended_domain_count ())
      (String.concat ", " (List.map Bx.json_str knobs))
      (knobs = []);
    if knobs <> [] then Printf.printf "WARNING: non-default XNFDB_* knobs in force: %s\n" (String.concat " " knobs);
    let r : Bx.outcome = run ~seed ~seconds ~trace in
    List.iter print_endline r.notes;
    let finite x = Float.is_finite x in
    let e2e_ok = List.for_all (fun (m : Bx.metric) -> (not m.gated) || (finite m.value && m.value > 0.0)) r.e2e in
    (* times and rates are scaled to the nominal host speed (Bx.Speed):
       end-to-end timings sample by sample, per-layer ones by the run's
       median factor at the timed phase's width *)
    let width = !Bx.Speed.width in
    let speed = Bx.Speed.factor ~width () in
    let scale u v = match u with "ms" | "s" -> v /. speed | "1/s" -> v *. speed | _ -> v in
    Printf.printf "host speed: reference task median %.2f ms on %d domain(s) over %d samples (nominal %.0f ms), factor %.4f\n"
      (Bx.ms (speed *. Bx.Speed.nominal)) width (List.length !Bx.Speed.samples) (Bx.ms Bx.Speed.nominal) speed;
    Printf.printf "  %-16s %14s %14s\n" "end-to-end" "scaled" "raw";
    List.iter
      (fun (m : Bx.metric) ->
        Printf.printf "  %-16s %14.4f %14.4f %s%s\n" m.name m.value m.raw m.unit_
          (if m.gated then "" else "  (not gated)"))
      r.e2e;
    Printf.printf "  %-16s %14.4f frac (%d of %d)\n" "failed_frac" (Bx.frac r.failed r.attempted) r.failed
      r.attempted;
    let metrics =
      if not trace then
        List.filter_map (fun (m : Bx.metric) -> if m.gated then Some (m.name, m.value, m.unit_) else None) r.e2e
      else begin
        let self, unattributed = Bx.Trace.attribution () in
        let computed =
          r.layer
          @ List.map (fun l -> (l ^ ".self_ms", self l)) [ "xnf"; "executor"; "cocache"; "net" ]
          @ [ ("trace.unattributed_ms", unattributed) ]
        in
        Bx.ensure_run_dir ();
        let path = Printf.sprintf "%s/spans-%s-seed%d.tsv" Bx.run_dir name seed in
        Bx.Trace.dump path;
        Printf.printf "per-layer (traced run; spans in %s):\n" path;
        List.map
          (fun (n, u) ->
            let raw = match List.assoc_opt n computed with Some v when finite v -> v | _ -> 0.0 in
            let v = scale u raw in
            Printf.printf "  %-32s %14.4f %14.4f %s\n" n v raw u;
            (n, v, u))
          layer_spec
      end
    in
    assert (trace || List.map (fun (n, _, _) -> n) metrics = e2e_names);
    let correct = r.failed = 0 && e2e_ok in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
      (max 1 r.attempted) r.failed
      (String.concat ", "
         (List.map
            (fun (n, v, u) ->
              Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Bx.json_str n)
                (if finite v then v else 0.0)
                (Bx.json_str u))
            metrics))
  end
