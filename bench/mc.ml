(* Model-checking bench tier: state/transition counts, DPOR reduction
   ratios, and the zero-violation gates for the checked configurations.

   Unlike the timing tiers this one is about coverage: it reports how
   large each configuration's reachable space is, how much of the naive
   enumeration the sleep-set and DPOR tiers shave off, and fails loudly
   if any monitor fires or if any configuration gets cut by a bound.

   Every configuration of the catalogue ([Configs.names]) is explored
   exhaustively under DPOR, built through [Configs.by_name], so a row is
   always the configuration a recorded schedule of that name replays
   against. The three-mode comparison (the reduction-ratio denominator)
   adds naive and sleep-set rows for single-replace, the one-request
   workload: naive enumeration of the two-request one is out of reach
   (hours), which is itself the point of the ratio. The whole run takes
   well under a second, so there is no quick mode. The artifact holds
   only counts, which repeat exactly from run to run; the printed table
   keeps each row's time. *)

module Explorer = Dr_mc.Explorer
module Configs = Dr_mc.Configs

type row = {
  row_config : string;
  row_mode : string;
  row_stats : Explorer.stats;
  row_violations : int;
  row_seconds : float;
}

let explore_row ~config_name cfg mode =
  let t0 = Unix.gettimeofday () in
  let r = Explorer.explore ~mode cfg in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun ((v : Dr_mc.Monitor.violation), sched) ->
      Printf.printf "  VIOLATION [%s] %s\n    repro: %s\n" v.v_monitor
        v.v_detail
        (String.concat " " (List.map Explorer.token_to_string sched)))
    r.Explorer.res_violations;
  { row_config = config_name;
    row_mode = Explorer.mode_name mode;
    row_stats = r.Explorer.res_stats;
    row_violations = List.length r.Explorer.res_violations;
    row_seconds = dt }

let print_rows rows =
  Printf.printf "%-28s %-6s %9s %11s %8s %7s %7s %6s %5s %8s\n" "config"
    "mode" "execs" "transitions" "states" "dedup" "sleep" "cuts" "viol"
    "time";
  Printf.printf "%s\n" (String.make 102 '-');
  List.iter
    (fun r ->
      let s = r.row_stats in
      Printf.printf "%-28s %-6s %9d %11d %8d %7d %7d %6d %5d %7.3fs%s\n"
        r.row_config r.row_mode s.Explorer.executions s.Explorer.transitions
        s.Explorer.states s.Explorer.dedup_cuts s.Explorer.sleep_prunes
        s.Explorer.depth_cuts r.row_violations r.row_seconds
        (if s.Explorer.capped then "  [CAPPED]" else ""))
    rows

let json_of_rows rows =
  Json_out.(
    arr
      (List.map
         (fun r ->
           let s = r.row_stats in
           obj
             [ ("config", str r.row_config);
               ("mode", str r.row_mode);
               ("executions", int s.Explorer.executions);
               ("transitions", int s.Explorer.transitions);
               ("states", int s.Explorer.states);
               ("dedup_cuts", int s.Explorer.dedup_cuts);
               ("sleep_prunes", int s.Explorer.sleep_prunes);
               ("depth_cuts", int s.Explorer.depth_cuts);
               ("frontier", int s.Explorer.frontier);
               ("capped", bool s.Explorer.capped);
               ("violations", int r.row_violations) ])
         rows))

let find rows config mode =
  List.find_opt (fun r -> r.row_config = config && r.row_mode = mode) rows

let gate_failures rows =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  List.iter
    (fun r ->
      let s = r.row_stats in
      if r.row_violations > 0 then
        fail "%s/%s: %d monitor violation(s)" r.row_config r.row_mode
          r.row_violations;
      (* every configuration must be exhaustively explored under DPOR *)
      if
        r.row_mode = "dpor"
        && (s.Explorer.capped || s.Explorer.depth_cuts > 0
          || s.Explorer.frontier > 0)
      then
        fail "%s/dpor not exhaustive: capped=%b depth_cuts=%d frontier=%d"
          r.row_config s.Explorer.capped s.Explorer.depth_cuts
          s.Explorer.frontier)
    rows;
  (* DPOR must actually reduce: >= 5x fewer transitions than naive *)
  (match (find rows "single-replace" "naive", find rows "single-replace" "dpor")
   with
  | Some n, Some d ->
    let ratio =
      float_of_int n.row_stats.Explorer.transitions
      /. float_of_int (max 1 d.row_stats.Explorer.transitions)
    in
    Printf.printf "\nDPOR reduction (single-replace): %.1fx transitions, %.1fx \
                   executions\n"
      ratio
      (float_of_int n.row_stats.Explorer.executions
      /. float_of_int (max 1 d.row_stats.Explorer.executions));
    if ratio < 5.0 then
      fail "DPOR reduction %.1fx < 5x on single-replace" ratio
  | _ -> fail "need both naive and dpor rows for single-replace");
  List.rev !fails

let config name =
  match Configs.by_name name with
  | Some cfg -> cfg
  | None -> failwith ("mc bench: unknown configuration " ^ name)

let all ?(path = "BENCH_mc.json") () =
  Printf.printf "== mc: systematic state-space exploration ==\n";
  let base = config "single-replace" in
  let naive = explore_row ~config_name:"single-replace" base Explorer.Naive in
  let sleep = explore_row ~config_name:"single-replace" base Explorer.Sleep in
  let dpor =
    List.map
      (fun name -> explore_row ~config_name:name (config name) Explorer.Dpor)
      Configs.names
  in
  let rows = naive :: sleep :: dpor in
  print_rows rows;
  let fails = gate_failures rows in
  Json_out.write path (json_of_rows rows);
  if fails <> [] then begin
    List.iter (fun m -> Printf.printf "GATE FAIL: %s\n" m) fails;
    exit 1
  end
  else Printf.printf "all mc gates passed\n%!"
