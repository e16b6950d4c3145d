open Inltune_vm
module W = Inltune_workloads
module Measure = Inltune_core.Measure
module Fitcache = Inltune_core.Fitcache
module Stats = Inltune_support.Stats
module Table = Inltune_support.Table
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event

(* Run stored policies end-to-end and compare against the default and the
   GA-tuned heuristics, mirroring the paper's test-suite protocol: train on
   SPECjvm98, report normalized times on unseen DaCapo+JBB. *)

let measure ?iterations ~scenario ~platform store bm =
  let decider =
    match store with
    (* A threshold store is just a heuristic: it shares the heuristic walk's
       fitness-cache entries. *)
    | Store.Threshold h -> Fitcache.Heuristic h
    | Store.Tree _ ->
      (* Stored decision trees consult the live profile under Adapt
         (Apply.factory re-derives features per compile), so they are not
         static policies: the cache key falls back to the store's content
         digest — sound, just no cross-policy merging. *)
      Fitcache.Policy
        {
          policy = Apply.factory ~ctx:(Features.make_ctx (W.Suites.program bm)) store;
          digest = Digest.to_hex (Digest.string (Store.to_string store));
          static = false;
        }
  in
  Measure.measure ?iterations ~scenario ~platform ~decider bm

type row = {
  r_bench : string;
  r_default : Measure.times;
  r_tuned : Measure.times option;
  r_learned : Measure.times;
}

type report = {
  rows : row list;
  scenario : Machine.scenario;
  platform : Platform.t;
}

let compare ?(iterations = 3) ?tuned ~scenario ~platform store benches =
  let rows =
    List.map
      (fun bm ->
        let d = Measure.run_default ~iterations ~scenario ~platform bm in
        let t =
          Option.map
            (fun h -> Measure.run ~iterations ~scenario ~platform ~heuristic:h bm)
            tuned
        in
        let l = measure ~iterations ~scenario ~platform store bm in
        if Trace.enabled () then
          Trace.emit "policy.eval"
            ~fields:
              ([
                 ("bench", Event.Str bm.W.Suites.bname);
                 ("policy", Event.Str (Store.kind_name store));
                 ("running_ratio", Event.Float (l.Measure.running /. d.Measure.running));
                 ("total_ratio", Event.Float (l.Measure.total /. d.Measure.total));
               ]
              @
              match t with
              | None -> []
              | Some t ->
                [
                  ("tuned_running_ratio", Event.Float (t.Measure.running /. d.Measure.running));
                  ("tuned_total_ratio", Event.Float (t.Measure.total /. d.Measure.total));
                ]);
        { r_bench = bm.W.Suites.bname; r_default = d; r_tuned = t; r_learned = l })
      benches
  in
  { rows; scenario; platform }

type geo = { g_running : float; g_total : float }

let geo_of select report =
  let ratios f =
    Array.of_list
      (List.filter_map
         (fun r ->
           Option.map (fun t -> f t /. f r.r_default) (select r))
         report.rows)
  in
  let running = ratios (fun t -> t.Measure.running) in
  if Array.length running = 0 then None
  else
    Some
      {
        g_running = Stats.geomean running;
        g_total = Stats.geomean (ratios (fun t -> t.Measure.total));
      }

let learned_geo report =
  match geo_of (fun r -> Some r.r_learned) report with
  | Some g -> g
  | None -> { g_running = 1.0; g_total = 1.0 }

let tuned_geo report = geo_of (fun r -> r.r_tuned) report

let table report =
  let has_tuned = List.exists (fun r -> r.r_tuned <> None) report.rows in
  let header =
    if has_tuned then
      [| "program"; "tuned:run"; "tuned:tot"; "learned:run"; "learned:tot" |]
    else [| "program"; "learned:run"; "learned:tot" |]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "policy comparison (%s, %s; time vs default, lower is better)"
           (Machine.scenario_name report.scenario)
           report.platform.Platform.pname)
      ~header
      ~aligns:(Array.map (fun _ -> Table.Right) header)
  in
  let cell v = Table.fmt_float v in
  List.iter
    (fun r ->
      let learned =
        [
          cell (r.r_learned.Measure.running /. r.r_default.Measure.running);
          cell (r.r_learned.Measure.total /. r.r_default.Measure.total);
        ]
      in
      let cols =
        match r.r_tuned with
        | Some tu when has_tuned ->
          [
            cell (tu.Measure.running /. r.r_default.Measure.running);
            cell (tu.Measure.total /. r.r_default.Measure.total);
          ]
          @ learned
        | None when has_tuned -> [ "-"; "-" ] @ learned
        | _ -> learned
      in
      Table.add_row t (Array.of_list (r.r_bench :: cols)))
    report.rows;
  Table.add_rule t;
  let lg = learned_geo report in
  let geo_cols =
    match tuned_geo report with
    | Some tg when has_tuned ->
      [ cell tg.g_running; cell tg.g_total; cell lg.g_running; cell lg.g_total ]
    | _ when has_tuned -> [ "-"; "-"; cell lg.g_running; cell lg.g_total ]
    | _ -> [ cell lg.g_running; cell lg.g_total ]
  in
  Table.add_row t (Array.of_list ("geomean" :: geo_cols));
  t

(* --- n-way comparison ---------------------------------------------------- *)
(* The 4-column protocol (default vs GA-tuned vs CART vs GP) outgrew the
   fixed three-system [report]; [compare_many] takes arbitrary labeled
   measurement closures and normalizes each against the shared default
   baseline. *)

type many_row = {
  n_bench : string;
  n_default : Measure.times;
  n_cells : Measure.times list;  (* one per system, in label order *)
}

type many_report = {
  m_labels : string list;
  m_rows : many_row list;
  m_scenario : Machine.scenario;
  m_platform : Platform.t;
}

let compare_many ?(iterations = 3) ~scenario ~platform systems benches =
  let m_labels = List.map fst systems in
  let m_rows =
    List.map
      (fun bm ->
        let d = Measure.run_default ~iterations ~scenario ~platform bm in
        let cells =
          List.map
            (fun (label, f) ->
              let t = f bm in
              if Trace.enabled () then
                Trace.emit "policy.eval"
                  ~fields:
                    [
                      ("bench", Event.Str bm.W.Suites.bname);
                      ("policy", Event.Str label);
                      ("running_ratio", Event.Float (t.Measure.running /. d.Measure.running));
                      ("total_ratio", Event.Float (t.Measure.total /. d.Measure.total));
                    ];
              t)
            systems
        in
        { n_bench = bm.W.Suites.bname; n_default = d; n_cells = cells })
      benches
  in
  { m_labels; m_rows; m_scenario = scenario; m_platform = platform }

let many_geos r =
  List.mapi
    (fun i label ->
      let ratios f =
        Array.of_list (List.map (fun row -> f (List.nth row.n_cells i) /. f row.n_default) r.m_rows)
      in
      let g =
        if r.m_rows = [] then { g_running = 1.0; g_total = 1.0 }
        else
          {
            g_running = Stats.geomean (ratios (fun t -> t.Measure.running));
            g_total = Stats.geomean (ratios (fun t -> t.Measure.total));
          }
      in
      (label, g))
    r.m_labels

let many_table r =
  let header =
    Array.of_list
      ("program" :: List.concat_map (fun l -> [ l ^ ":run"; l ^ ":tot" ]) r.m_labels)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "policy comparison (%s, %s; time vs default, lower is better)"
           (Machine.scenario_name r.m_scenario) r.m_platform.Platform.pname)
      ~header
      ~aligns:(Array.map (fun _ -> Table.Right) header)
  in
  let cell v = Table.fmt_float v in
  List.iter
    (fun row ->
      let cols =
        List.concat_map
          (fun c ->
            [
              cell (c.Measure.running /. row.n_default.Measure.running);
              cell (c.Measure.total /. row.n_default.Measure.total);
            ])
          row.n_cells
      in
      Table.add_row t (Array.of_list (row.n_bench :: cols)))
    r.m_rows;
  Table.add_rule t;
  let geo_cols =
    List.concat_map (fun (_, g) -> [ cell g.g_running; cell g.g_total ]) (many_geos r)
  in
  Table.add_row t (Array.of_list ("geomean" :: geo_cols));
  t
