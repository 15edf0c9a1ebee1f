(* The repository benchmark.

   One process runs one workload for a fixed wall-clock budget and
   prints, as its last stdout line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   a separate traced pass gives the per-layer ones. Inputs are made
   from --seed only; the program sees nothing but the generated items
   and command lines. Every output is checked against figures computed
   apart from the engine, outside the timed region; a failed check
   exits 1. See README.md for the workloads and the metric table. *)

open Dbp_util
open Dbp_instance
open Dbp_sim
open Dbp_workloads

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external maxrss_kb : unit -> int = "perfbench_maxrss_kb" [@@noalloc]

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then raise (Check_failed m)) fmt

let words () = int_of_float (Gc.minor_words ())

(* ---- samples ---- *)

(* Linear interpolation between order statistics of [n] sorted values,
   read through [get]. *)
let quantile n get q =
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. get lo) +. (frac *. get hi)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile (Array.length a) (Array.get a) 0.5

(* Latency histogram: log-linear buckets, 64 to each power of two, so
   a quantile over every sample of a run is read to within 1/64 of its
   value in fixed memory. Samples kept in a growing buffer would raise
   the peak RSS the benchmark reports, by more the longer the run. *)
module Hist = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make (62 * sub) 0; n = 0 }

  (* Binary search on the bit length, allocation-free: [add] runs inside
     the timed region. *)
  let floor_log2 v =
    let rec go v e k =
      if k = 0 then e else if v >= 1 lsl k then go (v lsr k) (e + k) (k / 2) else go v e (k / 2)
    in
    go v 0 32

  (* Values below [sub] have a bucket each; above, bucket i covers
     [lo, lo + 2^e). *)
  let index v =
    if v < sub then max v 0
    else
      let e = floor_log2 v - sub_bits in
      (e * sub) + (v lsr e)

  let bounds i =
    if i < 2 * sub then (i, 1)
    else
      let e = (i / sub) - 1 in
      ((i - (e * sub)) lsl e, 1 lsl e)

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  (* Samples are taken as spread evenly over their bucket. *)
  let quantile t q =
    let r = q *. float_of_int (t.n - 1) in
    let rec go i cum =
      let c = t.counts.(i) in
      if float_of_int (cum + c) > r then
        let lo, width = bounds i in
        float_of_int lo
        +. (float_of_int width *. (r -. float_of_int cum +. 0.5) /. float_of_int c)
      else go (i + 1) (cum + c)
    in
    if t.n = 0 then nan else go 0 0
end

(* A fixed loop that is not part of the program: a slow host shows up
   here as well, a slow change does not. *)
let ref_loop_ms () =
  let one () =
    let a = Array.make 65536 1 in
    let t0 = now_ns () in
    let x = ref 88172645463325252 in
    for i = 0 to 1 lsl 22 - 1 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let j = !x land 65535 in
      a.(j) <- a.(j) + i
    done;
    let dt = now_ns () - t0 in
    ignore (Sys.opaque_identity a);
    float_of_int dt /. 1e6
  in
  median (List.init 5 (fun _ -> one ()))

(* ---- metrics output ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let check_finite metrics =
  List.iter (fun x -> check (Float.is_finite x.value) "metric %s is %g" x.name x.value) metrics

let print_table metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_)
    metrics

(* ---- lower bound, computed from the generated items alone ---- *)

type bound = {
  lb : int;  (** integral of max over dimensions of ceil(S_t) *)
  peak_ceil : int;  (** max over t of that integrand *)
  peak_items : int;  (** max concurrent items *)
}

let l1_bound ~dims (items : Item.t array) =
  let n = Array.length items in
  (* Events at one tick are applied together: departures and arrivals
     at t both hold for [t, t+1) under half-open lifetimes. *)
  let ev = Array.make (2 * n) (0, 0, 0) in
  Array.iteri
    (fun i (r : Item.t) ->
      ev.(2 * i) <- (r.arrival, 1, i);
      ev.((2 * i) + 1) <- (r.departure, -1, i))
    items;
  Array.sort compare ev;
  let load = Array.make dims 0 in
  let live = ref 0 in
  let lb = ref 0 and peak_ceil = ref 0 and peak_items = ref 0 in
  let i = ref 0 in
  while !i < 2 * n do
    let t, _, _ = ev.(!i) in
    while
      !i < 2 * n
      &&
      let t', _, _ = ev.(!i) in
      t' = t
    do
      let _, sign, k = ev.(!i) in
      let r = items.(k) in
      for d = 0 to dims - 1 do
        load.(d) <- load.(d) + (sign * Item.size_units r d)
      done;
      live := !live + sign;
      incr i
    done;
    let c = ref 0 in
    for d = 0 to dims - 1 do
      c := max !c (Ints.ceil_div load.(d) Load.capacity)
    done;
    if !live > !peak_items then peak_items := !live;
    if !c > !peak_ceil then peak_ceil := !c;
    if !i < 2 * n then begin
      let t', _, _ = ev.(!i) in
      lb := !lb + (!c * (t' - t))
    end
  done;
  { lb = !lb; peak_ceil = !peak_ceil; peak_items = !peak_items }

(* ---- hook observer for the checked pass ---- *)

(* Shadows a policy's hooks and keeps its own per-bin books: load per
   dimension, item count, open tick. Bin ids are store slots, reused
   after a close, so state resets when a bin empties. *)
type observer = {
  dims : int;
  mutable count : int array;
  mutable load : int array array;
  mutable opened_at : int array;
  mutable open_now : int;
  mutable max_open : int;
  mutable opened : int;
  mutable lifetime : int;
  mutable over : int;
  mutable flag_mismatch : int;
  mutable moves_now : int;
  mutable max_moves : int;
  mutable arrivals : int;
  arr : int Vec.t;  (** arrival, departure, id triples in hook order *)
  series_t : int Vec.t;
  series_v : int Vec.t;
}

let observer dims =
  {
    dims;
    count = Array.make 64 0;
    load = Array.init dims (fun _ -> Array.make 64 0);
    opened_at = Array.make 64 0;
    open_now = 0;
    max_open = 0;
    opened = 0;
    lifetime = 0;
    over = 0;
    flag_mismatch = 0;
    moves_now = 0;
    max_moves = 0;
    arrivals = 0;
    arr = Vec.create ();
    series_t = Vec.create ();
    series_v = Vec.create ();
  }

let ensure o b =
  let len = Array.length o.count in
  if b >= len then begin
    let n = max (b + 1) (2 * len) in
    let grow a = Array.append a (Array.make (n - len) 0) in
    o.count <- grow o.count;
    o.opened_at <- grow o.opened_at;
    o.load <- Array.map grow o.load
  end

let record_event o now =
  o.moves_now <- 0;
  let n = Vec.length o.series_t in
  if n > 0 && Vec.last o.series_t = now then Vec.set o.series_v (n - 1) o.open_now
  else begin
    Vec.push o.series_t now;
    Vec.push o.series_v o.open_now
  end

let add_item o b (r : Item.t) sign =
  for d = 0 to o.dims - 1 do
    let v = o.load.(d).(b) + (sign * Item.size_units r d) in
    o.load.(d).(b) <- v;
    if v > Load.capacity then o.over <- o.over + 1
  done;
  o.count.(b) <- o.count.(b) + sign

let leave o b ~now ~closed =
  if o.count.(b) = 0 then begin
    o.lifetime <- o.lifetime + (now - o.opened_at.(b));
    o.open_now <- o.open_now - 1
  end;
  if (o.count.(b) = 0) <> closed then o.flag_mismatch <- o.flag_mismatch + 1

let observe o (p : Policy.t) : Policy.t =
  let on_arrival ~now (r : Item.t) =
    let b = p.on_arrival ~now r in
    ensure o b;
    if o.count.(b) = 0 then begin
      o.opened_at.(b) <- now;
      o.opened <- o.opened + 1;
      o.open_now <- o.open_now + 1;
      if o.open_now > o.max_open then o.max_open <- o.open_now
    end;
    add_item o b r 1;
    o.arrivals <- o.arrivals + 1;
    Vec.push o.arr r.arrival;
    Vec.push o.arr r.departure;
    Vec.push o.arr r.id;
    record_event o now;
    b
  in
  let on_departure ~now (r : Item.t) ~bin ~closed =
    p.on_departure ~now r ~bin ~closed;
    add_item o bin r (-1);
    leave o bin ~now ~closed;
    record_event o now
  in
  let on_move =
    Option.map
      (fun f ~now (r : Item.t) ~src ~dst ~closed ->
        f ~now r ~src ~dst ~closed;
        ensure o dst;
        add_item o src r (-1);
        add_item o dst r 1;
        leave o src ~now ~closed;
        o.moves_now <- o.moves_now + 1;
        if o.moves_now > o.max_moves then o.max_moves <- o.moves_now)
      p.on_move
  in
  { p with on_arrival; on_departure; on_move }

(* ---- stream workloads ---- *)

type stream_wl = {
  config : Cloud_traces.config;
  dims : int;
  k : int;  (** recourse budget per event; 0 = the policy unwrapped *)
  policies : (string * Policy.factory) list;
}

let cloud ~days ~rate ~dims =
  let resource =
    if dims = 1 then Resource_shape.scalar
    else { Resource_shape.dims; shape = Resource_shape.Independent; dim_mu = [||] }
  in
  { Cloud_traces.default with days; base_rate = rate; resource }

let stream_workloads =
  [
    ( "stream_scalar",
      {
        config = cloud ~days:2 ~rate:20.0 ~dims:1;
        dims = 1;
        k = 0;
        policies =
          [
            ("FF", Dbp_baselines.Any_fit.first_fit);
            ("BF", Dbp_baselines.Any_fit.best_fit);
            ("HA", Dbp_core.Ha.policy ());
            ("CDFF", Dbp_core.Cdff.policy ());
          ];
      } );
    ( "stream_vector",
      {
        config = cloud ~days:4 ~rate:10.0 ~dims:2;
        dims = 2;
        k = 0;
        policies =
          [
            ("FF", Dbp_baselines.Any_fit.first_fit);
            ("BF", Dbp_baselines.Any_fit.best_fit);
            ("CDFF", Dbp_core.Cdff.policy ());
          ];
      } );
    ( "stream_recourse",
      {
        config = cloud ~days:2 ~rate:20.0 ~dims:1;
        dims = 1;
        k = 2;
        policies = [ ("FF", Dbp_baselines.Any_fit.first_fit) ];
      } );
  ]

(* Close-emptiest, per-event budget: the Recourse defaults. *)
let wrap wl inner = if wl.k = 0 then inner else Recourse.wrap ~k:wl.k inner

let run_pass wl ?(emit = Fun.id) ~seed factory =
  Engine.Stream.run_chunks ~retire:true ~track_items:(wl.k > 0) ~max_series:512
    ~dims:wl.dims factory
    (emit (Cloud_traces.chunks ~config:wl.config ~seed ()))

(* Chunk latency: the time from one pull of the emitter to the next,
   i.e. emitting and placing one chunk of items. *)
let chunk_clock lat inner =
  let last = ref (-1) in
  Event_source.Chunk.make (fun block slots ->
      let t = now_ns () in
      if !last >= 0 then Hist.add lat (t - !last);
      last := t;
      Event_source.Chunk.next_chunk inner block slots)

(* One round: a pass of every policy (streams) or the trace once
   (serve). *)
type round = { r_items : int; r_ns : int }

(* Passes of every policy, in order, until the budget is spent: whole
   rounds only. Returns the rounds and the first round's per-policy
   results and minor-heap words. *)
let timed_rounds wl ~seconds ~pass =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  let first = ref [] in
  let first_words = ref 0 in
  while !rounds = [] || now_ns () < t_end do
    let items = ref 0 and ns = ref 0 in
    let results =
      List.map
        (fun (name, inner) ->
          let w0 = words () in
          let t0 = now_ns () in
          let s = pass name inner in
          let t1 = now_ns () in
          let w1 = words () in
          items := !items + s.Engine.Stream.items;
          ns := !ns + (t1 - t0);
          if !rounds = [] then first_words := !first_words + (w1 - w0);
          (name, s))
        wl.policies
    in
    (match !first with
    | [] -> first := results
    | f ->
        List.iter2
          (fun (name, (a : Engine.Stream.stats)) (_, (b : Engine.Stream.stats)) ->
            check
              (a.result.cost = b.result.cost
              && a.result.bins_opened = b.result.bins_opened
              && a.items = b.items)
              "%s: a repeated pass gave cost %d/%d, bins %d/%d" name
              a.result.cost b.result.cost a.result.bins_opened
              b.result.bins_opened)
          f results);
    rounds := { r_items = !items; r_ns = !ns } :: !rounds
  done;
  (List.rev !rounds, !first, !first_words)

let round_rate r = float_of_int r.r_items /. (float_of_int r.r_ns /. 1e9)

(* Items per second in the run's median round. Every round is whole
   passes, so minor and major GC work stays in the figure; on a shared
   host whole seconds run slow, and the median round is the figure that
   repeats between runs (see README.md). *)
let median_rate rounds = median (List.map round_rate rounds)

(* How the round rates spread within a run, for stderr: quartiles, and
   the medians of the run's first and second halves. *)
let spread_note rounds =
  let a = Array.of_list (List.map round_rate rounds) in
  let n = Array.length a in
  let half l = median (Array.to_list l) in
  let first = half (Array.sub a 0 (max 1 (n / 2)))
  and second = half (Array.sub a (n / 2) (n - (n / 2))) in
  Array.sort compare a;
  let q = quantile n (Array.get a) in
  Printf.sprintf "round items/s q1 %.0f median %.0f q3 %.0f; halves %.0f, %.0f" (q 0.25) (q 0.5)
    (q 0.75) first second

(* Set-up: the GC profile of `dbp stream` and one untimed pass of
   every policy over the first day of the workload's trace family, so
   heap and arena growth and first-touch page faults fall before the
   timed region. *)
let warm_up wl ~seed =
  let warm = { wl with config = { wl.config with days = 1 } } in
  Gc_tune.apply Gc_tune.stream_default;
  List.iter (fun (_, inner) -> ignore (run_pass warm ~seed (wrap warm inner))) wl.policies

(* Set-up is timed [setup_reps] times in a run and the median is
   reported: [setup_before] repetitions before the timed part, the rest
   after it, so the figure samples the host's speed at both ends of the
   run rather than in one short window. *)
let setup_reps = 11
let setup_before = 6

let stream_setup wl ~seed reps =
  List.init reps (fun _ ->
      let t0 = now_ns () in
      warm_up wl ~seed;
      float_of_int (now_ns () - t0) /. 1e9)

(* The checked pass: every policy once more with its hooks observed,
   compared with the timed results, the naive reference engine and the
   lower bound. Returns the observers for the trace-mode replays. *)
let stream_checks wl ~seed ~(first : (string * Engine.Stream.stats) list) =
  let inst = Cloud_traces.generate ~config:wl.config ~seed () in
  let items = Instance.items inst in
  let b = l1_bound ~dims:wl.dims items in
  let obs =
    List.map
      (fun (name, inner) ->
        let o = observer wl.dims in
        let factory = wrap wl (fun store -> observe o (inner store)) in
        let s = run_pass wl ~seed factory in
        let t = List.assoc name first in
        let r = s.result in
        check
          (r.cost = t.result.cost
          && r.bins_opened = t.result.bins_opened
          && r.max_open = t.result.max_open && s.items = t.items)
          "%s: observed pass differs from the timed one" name;
        check (o.over = 0) "%s: %d bin loads over capacity" name o.over;
        check (o.flag_mismatch = 0) "%s: %d close flags disagree with bin counts"
          name o.flag_mismatch;
        check (o.open_now = 0) "%s: %d bins open after the run" name o.open_now;
        check (o.lifetime = r.cost) "%s: bin lifetimes sum to %d, cost is %d" name
          o.lifetime r.cost;
        check (o.opened = r.bins_opened) "%s: observed %d opens, reported %d" name
          o.opened r.bins_opened;
        check (o.max_open = r.max_open) "%s: observed max open %d, reported %d"
          name o.max_open r.max_open;
        check (o.max_moves <= wl.k) "%s: %d moves in one event (budget %d)" name
          o.max_moves wl.k;
        check (o.arrivals = Array.length items && s.items = Array.length items)
          "%s: %d items placed, %d generated" name s.items (Array.length items);
        let nv = Dbp_check.Naive.run (wrap wl inner) inst in
        check
          (nv.cost = r.cost && nv.bins_opened = r.bins_opened
         && nv.max_open = r.max_open && nv.moves = r.moves)
          "%s: naive engine gives cost %d bins %d max %d moves %d; engine %d %d \
           %d %d"
          name nv.cost nv.bins_opened nv.max_open nv.moves r.cost r.bins_opened
          r.max_open r.moves;
        check (r.cost >= b.lb) "%s: cost %d below the L1 bound %d" name r.cost b.lb;
        check (r.max_open >= b.peak_ceil) "%s: max open %d below max ceil(S_t) %d"
          name r.max_open b.peak_ceil;
        check (s.peak_live_items = b.peak_items)
          "%s: peak live items %d, the items show %d" name s.peak_live_items
          b.peak_items;
        (name, o))
      wl.policies
  in
  (b, obs)

let cost_ratio b first =
  let total = List.fold_left (fun acc (_, (s : Engine.Stream.stats)) -> acc + s.result.cost) 0 first in
  float_of_int total /. float_of_int (List.length first * b.lb)

let peak_rss_mb () = float_of_int (maxrss_kb ()) /. 1024.

(* Quantiles over every sample of the run. A stream round has too few
   chunks for a tail of its own (the p99 of 136 chunks is one chunk). *)
let latency_metrics lat =
  [
    m "latency_p50_us" "us" (Hist.quantile lat 0.5 /. 1e3);
    m "latency_p99_us" "us" (Hist.quantile lat 0.99 /. 1e3);
  ]

let stream_untraced wl ~seed ~seconds =
  let setup_times = stream_setup wl ~seed setup_before in
  let lat = Hist.create () in
  let rounds, first, first_words =
    timed_rounds wl ~seconds ~pass:(fun _ inner ->
        run_pass wl ~emit:(chunk_clock lat) ~seed (wrap wl inner))
  in
  let rss = peak_rss_mb () in
  let setup_s = median (setup_times @ stream_setup wl ~seed (setup_reps - setup_before)) in
  let b, _ = stream_checks wl ~seed ~first in
  let first_items =
    List.fold_left (fun acc (_, (s : Engine.Stream.stats)) -> acc + s.items) 0 first
  in
  let attempted = List.fold_left (fun acc r -> acc + r.r_items) 0 rounds in
  Printf.eprintf "%d rounds, %d chunks; %s\n" (List.length rounds) lat.n (spread_note rounds);
  ( attempted,
    [
      m "setup_s" "s" setup_s;
      m "items_per_s" "items/s" (median_rate rounds);
      m "alloc_words_per_item" "words"
        (float_of_int first_words /. float_of_int first_items);
      m "peak_rss_mb" "MB" rss;
      m "cost_ratio" "ratio" (cost_ratio b first);
    ]
    @ latency_metrics lat )

(* ---- per-layer figures ---- *)

(* Every traced run reports every per-layer metric; a layer the
   workload does not run reads 0. Order and units follow
   BENCHMARK.json. *)
let layer_spec =
  [
    ("traced.items_per_s", "items/s");
    ("emit.ns_per_item", "ns");
    ("emit.alloc_words_per_item", "words");
    ("select.FF.ns_per_item", "ns");
    ("select.FF.alloc_words_per_item", "words");
    ("select.BF.ns_per_item", "ns");
    ("select.BF.alloc_words_per_item", "words");
    ("select.HA.ns_per_item", "ns");
    ("select.HA.alloc_words_per_item", "words");
    ("select.CDFF.ns_per_item", "ns");
    ("select.CDFF.alloc_words_per_item", "words");
    ("depart_hook.ns_per_item", "ns");
    ("engine.self_ns_per_item", "ns");
    ("depart_queue.replay_ns_per_item", "ns");
    ("lttb.replay_ns_per_push", "ns");
    ("recourse.ns_per_item", "ns");
    ("recourse.alloc_words_per_item", "words");
    ("recourse.moves_per_kitem", "1/kitem");
    ("serve.exec_ns_per_command", "ns");
    ("serve.framing_ns_per_command", "ns");
    ("serve.batch_fill", "commands");
    ("pool.tasks_run", "1/kcmd");
    ("serve.restore_ms", "ms");
    ("serve.snapshot_ms", "ms");
    ("serve.snapshot_bytes", "bytes");
    ("engine.peak_live_items", "items");
    ("gc.promoted_words_per_item", "words");
    ("gc.major_collections", "1/Mitem");
    ("host.ref_loop_ms", "ms");
  ]

let layer_metrics values =
  List.map
    (fun (name, u) ->
      m name u (Option.value (List.assoc_opt name values) ~default:0.))
    layer_spec

type acc = { mutable ns : int; mutable w : int }

let acc () = { ns = 0; w = 0 }

(* Probes around one call: two clock reads and two minor-heap reads,
   none of which allocates. *)
let probe a f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  a.ns <- a.ns + (t1 - t0);
  a.w <- a.w + int_of_float (w1 -. w0);
  r

let timed_policy ~arr ~dep ~mv (p : Policy.t) : Policy.t =
  {
    p with
    on_arrival = (fun ~now r -> probe arr (fun () -> p.on_arrival ~now r));
    on_departure =
      (fun ~now r ~bin ~closed ->
        probe dep (fun () -> p.on_departure ~now r ~bin ~closed));
    on_move =
      Option.map
        (fun f ~now r ~src ~dst ~closed ->
          probe mv (fun () -> f ~now r ~src ~dst ~closed))
        p.on_move;
  }

(* Replays of an observed event sequence through the program's
   departure calendar and LTTB recorder, each timed five times.
   [arr] holds (arrival, departure, id) triples in arrival order. *)
let replays ~(arr : int array) ~(series : (int array * int array) list) =
  let n = Array.length arr / 3 in
  let dq () =
    let q = Depart_queue.create () in
    let free = Array.init (n + 1) Fun.id and top = ref 0 in
    let deps = Array.make (n + 1) 0 and ids = Array.make (n + 1) 0 in
    let popped_dep = Array.make n 0 and popped_id = Array.make n 0 in
    let np = ref 0 in
    let pop upto =
      let s = ref (Depart_queue.pop_due q ~upto) in
      while !s >= 0 do
        popped_dep.(!np) <- deps.(!s);
        popped_id.(!np) <- ids.(!s);
        incr np;
        decr top;
        free.(!top) <- !s;
        s := Depart_queue.pop_due q ~upto
      done
    in
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      let a = arr.(3 * i) and d = arr.((3 * i) + 1) and id = arr.((3 * i) + 2) in
      pop a;
      let s = free.(!top) in
      incr top;
      deps.(s) <- d;
      ids.(s) <- id;
      Depart_queue.add q ~dep:d ~id s
    done;
    pop max_int;
    let dt = now_ns () - t0 in
    check (!np = n) "depart queue returned %d of %d items" !np n;
    for k = 1 to n - 1 do
      check
        (popped_dep.(k - 1) < popped_dep.(k)
        || (popped_dep.(k - 1) = popped_dep.(k) && popped_id.(k - 1) < popped_id.(k)))
        "depart queue popped out of (departure, id) order at %d" k
    done;
    float_of_int dt /. float_of_int n
  in
  let lttb () =
    let pushes = ref 0 in
    let t0 = now_ns () in
    List.iter
      (fun (ts, vs) ->
        let r = Lttb.create ~cap:512 () in
        Array.iteri (fun i tick -> Lttb.push_s r ~tick ~value:vs.(i)) ts;
        pushes := !pushes + Array.length ts;
        ignore (Lttb.to_array r))
      series;
    float_of_int (now_ns () - t0) /. float_of_int !pushes
  in
  [
    ("depart_queue.replay_ns_per_item", median (List.init 5 (fun _ -> dq ())));
    ("lttb.replay_ns_per_push", median (List.init 5 (fun _ -> lttb ())));
  ]

type layers = {
  emit : acc;
  sel : (string * acc) list;
  dep : acc;
  mv : acc;
  outer : acc;  (** the recourse-wrapped hooks *)
  mutable items : int;
  mutable pass_ns : int;
  mutable moves : int;
}

(* The emitter of a traced pass: timed per pull, with a Chrome-trace
   span per pull and one per chunk drained. A chunk span closes at the
   next pull and is followed by a zero-length span carrying that
   chunk's aggregated hook time. *)
let traced_emitter l ~spans inner =
  let open_chunk = ref false in
  let hooks_at = ref 0 in
  let hook_ns () =
    List.fold_left (fun a (_, x) -> a + x.ns) (l.dep.ns + l.outer.ns) l.sel
  in
  Event_source.Chunk.make (fun block slots ->
      if spans && !open_chunk then begin
        Trace.end_span ();
        let h = hook_ns () in
        Trace.begin_span "chunk.hooks" ~args:[ ("hook_ns", string_of_int (h - !hooks_at)) ];
        Trace.end_span ();
        hooks_at := h;
        open_chunk := false
      end;
      if spans then Trace.begin_span "emit";
      let n = probe l.emit (fun () -> Event_source.Chunk.next_chunk inner block slots) in
      if spans then begin
        Trace.end_span ();
        if n > 0 then begin
          Trace.begin_span "chunk" ~args:[ ("items", string_of_int n) ];
          open_chunk := true
        end
      end;
      n)

let gc_layers q0 q1 items =
  [
    ( "gc.promoted_words_per_item",
      (q1.Gc.promoted_words -. q0.Gc.promoted_words) /. float_of_int items );
    ( "gc.major_collections",
      1e6 *. float_of_int (q1.major_collections - q0.major_collections)
      /. float_of_int items );
  ]

let stream_traced wl ~seed ~seconds =
  warm_up wl ~seed;
  let l =
    {
      emit = acc ();
      sel = List.map (fun (n, _) -> (n, acc ())) wl.policies;
      dep = acc ();
      mv = acc ();
      outer = acc ();
      items = 0;
      pass_ns = 0;
      moves = 0;
    }
  in
  (* Inner hooks are probed as the policy's own; with recourse the
     wrapped hooks are probed too, and their difference is the
     recourse layer. *)
  let traced_factory name inner =
    let arr = List.assoc name l.sel in
    let inner store = timed_policy ~arr ~dep:l.dep ~mv:l.mv (inner store) in
    if wl.k = 0 then inner
    else
      let wrapped = wrap wl inner in
      fun store -> timed_policy ~arr:l.outer ~dep:l.outer ~mv:l.outer (wrapped store)
  in
  let q0 = Gc.quick_stat () in
  let passes = ref 0 in
  let peak_live = ref 0 in
  let rounds, first, _ =
    timed_rounds wl ~seconds ~pass:(fun name inner ->
        (* Spans for the first round only: the trace file stays small. *)
        let spans = !passes < List.length wl.policies in
        incr passes;
        Trace.set_enabled spans;
        let s =
          Trace.with_span "pass" ~args:[ ("policy", name) ] (fun () ->
              let t0 = now_ns () in
              let s =
                run_pass wl
                  ~emit:(traced_emitter l ~spans)
                  ~seed (traced_factory name inner)
              in
              l.pass_ns <- l.pass_ns + (now_ns () - t0);
              s)
        in
        Trace.set_enabled false;
        l.items <- l.items + s.items;
        l.moves <- l.moves + s.result.moves;
        peak_live := max !peak_live s.peak_live_items;
        s)
  in
  let q1 = Gc.quick_stat () in
  let b, obs = stream_checks wl ~seed ~first in
  let per_item x = float_of_int x /. float_of_int l.items in
  let per_pass_item x = float_of_int x /. float_of_int (l.items / List.length wl.policies) in
  let inner_ns = List.fold_left (fun a (_, x) -> a + x.ns) (l.dep.ns + l.mv.ns) l.sel in
  let inner_w = List.fold_left (fun a (_, x) -> a + x.w) (l.dep.w + l.mv.w) l.sel in
  let hooks_ns = if wl.k = 0 then inner_ns else l.outer.ns in
  let select =
    List.concat_map
      (fun (p, a) ->
        [
          (Printf.sprintf "select.%s.ns_per_item" p, per_pass_item a.ns);
          (Printf.sprintf "select.%s.alloc_words_per_item" p, per_pass_item a.w);
        ])
      l.sel
  in
  let recourse =
    if wl.k = 0 then []
    else
      [
        ("recourse.ns_per_item", per_item (l.outer.ns - inner_ns));
        ("recourse.alloc_words_per_item", per_item (l.outer.w - inner_w));
        ("recourse.moves_per_kitem", 1000. *. per_item l.moves);
      ]
  in
  let _, o = List.hd obs in
  let arr = Vec.to_array o.arr in
  let series = List.map (fun (_, o) -> (Vec.to_array o.series_t, Vec.to_array o.series_v)) obs in
  check (!peak_live = b.peak_items) "traced peak live items %d, the items show %d"
    !peak_live b.peak_items;
  ( l.items,
    [
      ("traced.items_per_s", median_rate rounds);
      ("emit.ns_per_item", per_item l.emit.ns);
      ("emit.alloc_words_per_item", per_item l.emit.w);
      ("depart_hook.ns_per_item", per_item l.dep.ns);
      ("engine.self_ns_per_item", per_item (l.pass_ns - l.emit.ns - hooks_ns));
      ("engine.peak_live_items", float_of_int !peak_live);
    ]
    @ select @ recourse @ gc_layers q0 q1 l.items @ replays ~arr ~series )

(* ---- serve_mixed ---- *)

(* A warm FF daemon with two shards, driven through Serve.run by one
   closed-loop client, with the pool inline: a Pool of two jobs adds
   two worker domains to the main one, three domains on a two-core
   host, and their wake-up times made the tail latency unrepeatable.
   The client releases a window of commands, waits for every response,
   then releases the next. Traffic is a cloud trace replayed in rounds:
   round r shifts ids by r * items and ticks by r * horizon, so
   consecutive rounds overlap and the daemon stays at its steady-state
   load. Set-up plays round 0 and restores the daemon from its
   snapshot. *)
let serve_config = cloud ~days:1 ~rate:20.0 ~dims:1
let serve_shards = 2
let window = 64
let depart_every = 4 (* ticks between `depart` barriers *)
let stats_every = 100 (* commands between `stats` reads *)

type cmd = P of int | D of int | S

type traffic = {
  items : Item.t array;  (** round 0 *)
  sizes : string array;
  cmds : cmd array;  (** one round *)
  horizon : int;
  places : int;
}

let gen_items ?(emit = Fun.id) ~seed () =
  let e = emit (Cloud_traces.chunks ~config:serve_config ~seed ()) in
  let block = Item_block.create () in
  let slots = Array.make Engine.Stream.default_chunk_size (-1) in
  let out = ref [] in
  let rec loop () =
    let n = Event_source.Chunk.next_chunk e block slots in
    if n > 0 then begin
      for i = 0 to n - 1 do
        out := Item_block.item block slots.(i) :: !out;
        Item_block.free block slots.(i)
      done;
      loop ()
    end
  in
  loop ();
  Array.of_list (List.rev !out)

let make_traffic items =
  let cmds = ref [] and ncmd = ref 0 in
  let push c =
    cmds := c :: !cmds;
    incr ncmd;
    if !ncmd mod stats_every = 0 then begin
      cmds := S :: !cmds;
      incr ncmd
    end
  in
  let next_depart = ref depart_every in
  Array.iteri
    (fun i (r : Item.t) ->
      if r.arrival >= !next_depart then begin
        push (D r.arrival);
        next_depart := ((r.arrival / depart_every) + 1) * depart_every
      end;
      push (P i))
    items;
  {
    items;
    sizes = Array.map (fun (r : Item.t) -> Printf.sprintf "%.9f" (Load.to_float r.size)) items;
    cmds = Array.of_list (List.rev !cmds);
    horizon = serve_config.days * 1440;
    places = Array.length items;
  }

let shifted tr r (it : Item.t) =
  let n = Array.length tr.items and h = r * tr.horizon in
  (it.id + (r * n), it.arrival + h, it.departure + h)

let add_cmd buf tr r = function
  | P i ->
      let id, a, d = shifted tr r tr.items.(i) in
      Buffer.add_string buf "place ";
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int a);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int d);
      Buffer.add_char buf ' ';
      Buffer.add_string buf tr.sizes.(i)
  | D t ->
      Buffer.add_string buf "depart ";
      Buffer.add_string buf (string_of_int (t + (r * tr.horizon)))
  | S -> Buffer.add_string buf "stats"

let scan line fmt f =
  try Scanf.sscanf line fmt f
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    raise (Check_failed (Printf.sprintf "serve: unexpected response %S" line))

let is_ok line = String.length line >= 2 && line.[0] = 'o' && line.[1] = 'k'

(* The daemon's resident memory keeps growing under this steady load
   (README.md gives figures), so peak RSS is read after a fixed number
   of timed rounds, not at the end of the run, where it would depend on
   how many rounds the host's speed allowed. *)
let rss_rounds = 100

(* The client behind the in-memory connection. A round's command lines
   are formatted before the round's clock starts, so the round time,
   the latencies and the daemon's allocation figure hold no client
   formatting. [recv] is the client's turn: when the daemon has consumed
   the released window it releases the next one, or ends input once the
   last round is done (or the time is up, at a round boundary). *)
type client = {
  tr : traffic;
  mutable round : int;
  text : Buffer.t;  (** the current round, formatted *)
  ends : int array;  (** byte offset in [text] where each window ends *)
  mutable win : int;  (** windows of the round released so far *)
  mutable off : int;  (** read position in [text] *)
  mutable lim : int;  (** end of the released window *)
  last_round : int;
  t_end : int;
  mutable release : int;
  mutable round_start : int;
  mutable rounds : round list;
  mutable rss_mb : float;  (** peak RSS when [rss_rounds] rounds were done *)
  mutable fmt_words : int;  (** minor words spent formatting *)
  lat : Hist.t option;
  keep : Buffer.t option;  (** responses, one per line *)
  mutable sent : int;
  mutable answered : int;
  mutable failed : int;
  (* trace probes *)
  probes : bool;
  mutable cb_ns : int;
  mutable exec_ns : int;
  mutable exec_start : int;
  mutable window_open : bool;
  mutable spans : bool;
}

let windows tr = (Array.length tr.cmds + window - 1) / window

let client ?lat ?keep ?(probes = false) ~first_round ~last_round ~t_end tr =
  {
    tr;
    round = first_round;
    text = Buffer.create 4096;
    ends = Array.make (windows tr) 0;
    win = 0;
    off = 0;
    lim = 0;
    last_round;
    t_end;
    release = 0;
    round_start = 0;
    rounds = [];
    rss_mb = nan;
    fmt_words = 0;
    lat;
    keep;
    sent = 0;
    answered = 0;
    failed = 0;
    probes;
    cb_ns = 0;
    exec_ns = 0;
    exec_start = -1;
    window_open = false;
    spans = false;
  }

let format_round c =
  let w0 = words () in
  Buffer.clear c.text;
  let n = Array.length c.tr.cmds in
  for k = 0 to n - 1 do
    add_cmd c.text c.tr c.round c.tr.cmds.(k);
    Buffer.add_char c.text '\n';
    if (k + 1) mod window = 0 || k = n - 1 then c.ends.(k / window) <- Buffer.length c.text
  done;
  c.fmt_words <- c.fmt_words + (words () - w0)

let next_window c =
  if c.win = Array.length c.ends then begin
    c.rounds <- { r_items = c.tr.places; r_ns = now_ns () - c.round_start } :: c.rounds;
    if List.compare_length_with c.rounds rss_rounds = 0 then c.rss_mb <- peak_rss_mb ();
    c.round <- c.round + 1;
    c.win <- 0;
    (* A traced client records spans for its first round only, to keep
       the trace file small. *)
    if c.spans then begin
      c.spans <- false;
      Trace.set_enabled false
    end
  end;
  if c.round > c.last_round || (c.rounds <> [] && c.win = 0 && now_ns () >= c.t_end) then
    false
  else begin
    if c.win = 0 then begin
      format_round c;
      c.off <- 0;
      c.round_start <- now_ns ()
    end;
    c.lim <- c.ends.(c.win);
    c.sent <- c.sent + (min (Array.length c.tr.cmds) ((c.win + 1) * window) - (c.win * window));
    c.win <- c.win + 1;
    c.release <- now_ns ();
    if c.spans then begin
      Trace.begin_span "window";
      c.window_open <- true
    end;
    true
  end

let conn c =
  let recv b off len =
    if c.off >= c.lim && not (next_window c) then 0
    else begin
      let n = min len (c.lim - c.off) in
      Buffer.blit c.text c.off b off n;
      c.off <- c.off + n;
      n
    end
  in
  let ready () =
    let r = c.off < c.lim in
    if c.probes && not r then begin
      c.exec_start <- now_ns ();
      if c.spans then Trace.begin_span "serve.exec_batch"
    end;
    r
  in
  let send line =
    let t = now_ns () in
    if c.exec_start >= 0 then begin
      c.exec_ns <- c.exec_ns + (t - c.exec_start);
      c.exec_start <- -1;
      if c.spans then Trace.end_span ()
    end;
    (match c.lat with Some h -> Hist.add h (t - c.release) | None -> ());
    (match c.keep with
    | Some k ->
        Buffer.add_string k line;
        Buffer.add_char k '\n'
    | None -> ());
    if not (is_ok line) then c.failed <- c.failed + 1;
    c.answered <- c.answered + 1;
    if c.window_open && c.answered = c.sent then begin
      Trace.end_span ();
      c.window_open <- false
    end
  in
  (* Traced runs also time the client's own callbacks, so they can be
     taken out of the daemon's time. *)
  let timed f x =
    let t0 = now_ns () in
    let r = f x in
    c.cb_ns <- c.cb_ns + (now_ns () - t0);
    r
  in
  if not c.probes then { Serve.recv; ready; send; flush = ignore }
  else
    {
      Serve.recv = (fun b off len -> timed (fun () -> recv b off len) ());
      ready = timed ready;
      send = timed send;
      flush = ignore;
    }

type serve_setup = {
  traffic : traffic;
  resp0 : string array;
  snap : string;
  daemon : Serve.t;
}

(* Set-up: generate the trace, play round 0 into a fresh daemon one
   window per exec_batch, snapshot it and restore it through the
   daemon's restart path. *)
let serve_setup ?emit ~seed () =
  let one () =
    let t0 = now_ns () in
    let tr = make_traffic (gen_items ?emit ~seed ()) in
    let d = Serve.create ~shards:serve_shards ~seed Dbp_binpack.Heuristics.First_fit in
    let resp = ref [] in
    let buf = Buffer.create 64 in
    let ncmd = Array.length tr.cmds in
    let pos = ref 0 in
    while !pos < ncmd do
      let hi = min ncmd (!pos + window) in
      let lines =
        Array.init (hi - !pos) (fun k ->
            Buffer.clear buf;
            add_cmd buf tr 0 tr.cmds.(!pos + k);
            Buffer.contents buf)
      in
      resp := Serve.exec_batch d lines :: !resp;
      pos := hi
    done;
    let t1 = now_ns () in
    let snap = Json.to_string (Serve.to_json d) in
    let t2 = now_ns () in
    let daemon = Serve.of_json (Json.parse_exn snap) in
    let t3 = now_ns () in
    ( { traffic = tr; resp0 = Array.concat (List.rev !resp); snap; daemon },
      ( float_of_int (t3 - t0) /. 1e9,
        float_of_int (t2 - t1) /. 1e6,
        float_of_int (t3 - t2) /. 1e6 ) )
  in
  (* Only the last set-up is kept, and the earlier ones are collected
     (untimed) before the next begins, so repeating the set-up does not
     raise peak RSS. Returns the last set-up and each repetition's
     (total s, snapshot ms, restore ms). *)
  fun reps ->
    let last = ref None and times = ref [] in
    for _ = 1 to reps do
      last := None;
      Gc.full_major ();
      let setup, t = one () in
      last := Some setup;
      times := t :: !times
    done;
    (Option.get !last, !times)

let setup_total (s, _, _) = s

let check_rounds = 2

(* The checked replay: rounds 1..2 on a daemon freshly restored from
   the set-up snapshot. Checks one ok per command line, then replays each
   shard's items (shard taken from its `ok <shard>:<bin>` responses)
   through the naive engine with FF: the shard costs must sum to the
   daemon's final `stats` cost, which must clear the L1 bound. Returns
   the daemon's minor words per place (the client's formatting taken
   out) and the cost ratio. *)
let serve_checks (s : serve_setup) =
  let tr = s.traffic in
  let d = Serve.of_json (Json.parse_exn s.snap) in
  let keep = Buffer.create (1 lsl 20) in
  let c = client ~keep ~first_round:1 ~last_round:check_rounds ~t_end:max_int tr in
  let w0 = words () in
  Serve.run d (conn c);
  let w1 = words () in
  let last = Array.length tr.cmds * check_rounds in
  check (c.sent = last && c.answered = last)
    "serve: %d commands sent, %d answered, %d expected" c.sent c.answered last;
  let horizon_end = ((check_rounds + 2) * tr.horizon) + serve_config.max_duration in
  let final = Serve.exec_batch d [| Printf.sprintf "depart %d" horizon_end; "stats" |] in
  check (is_ok final.(0)) "serve: final depart answered %S" final.(0);
  let cost = scan final.(1) "ok cost=%d" Fun.id in
  let lines = String.split_on_char '\n' (Buffer.contents keep) in
  let resp = Array.append s.resp0 (Array.of_list (List.filter (( <> ) "") lines)) in
  let ncmd = Array.length tr.cmds in
  check (Array.length resp = ncmd * (check_rounds + 1))
    "serve: %d responses for %d command lines" (Array.length resp)
    (ncmd * (check_rounds + 1));
  let shard_items = Array.make serve_shards [] in
  let all = ref [] in
  for r = 0 to check_rounds do
    Array.iteri
      (fun k cmd ->
        let line = resp.((r * ncmd) + k) in
        check (is_ok line) "serve: round %d command %d answered %S" r k line;
        match cmd with
        | P i ->
            let shard = scan line "ok %d:%d" (fun s _ -> s) in
            check (shard >= 0 && shard < serve_shards) "serve: shard %d in %S" shard line;
            let id, arrival, departure = shifted tr r tr.items.(i) in
            let size = Load.of_float (float_of_string tr.sizes.(i)) in
            let it = Item.make ~id ~arrival ~departure ~size in
            shard_items.(shard) <- it :: shard_items.(shard);
            all := it :: !all
        | D _ | S -> ())
      tr.cmds
  done;
  let naive =
    Array.fold_left
      (fun acc items ->
        acc
        + (Dbp_check.Naive.run Dbp_baselines.Any_fit.first_fit (Instance.of_items items)).cost)
      0 shard_items
  in
  check (naive = cost) "serve: shards replayed through the naive engine cost %d, stats says %d"
    naive cost;
  let b = l1_bound ~dims:1 (Array.of_list !all) in
  check (cost >= b.lb) "serve: cost %d below the L1 bound %d" cost b.lb;
  let places = tr.places * check_rounds in
  ( float_of_int (w1 - w0 - c.fmt_words) /. float_of_int places,
    float_of_int cost /. float_of_int b.lb )

let serve_untraced ~seed ~seconds =
  Pool.set_default_jobs 1;
  let s, before = serve_setup ~seed () setup_before in
  let lat = Hist.create () in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let c = client ~lat ~first_round:1 ~last_round:max_int ~t_end s.traffic in
  Serve.run s.daemon (conn c);
  let rss_end = peak_rss_mb () in
  let rss = if Float.is_nan c.rss_mb then rss_end else c.rss_mb in
  let _, after = serve_setup ~seed () (setup_reps - setup_before) in
  let setup_s = median (List.map setup_total (before @ after)) in
  let alloc, ratio = serve_checks s in
  let count f = Array.fold_left (fun a x -> if f x then a + 1 else a) 0 s.traffic.cmds in
  Printf.eprintf
    "%d rounds, peak RSS %.1f MB after %d rounds and %.1f MB at the end; per round %d \
     places, %d departs, %d stats; %s\n"
    (List.length c.rounds) rss (min rss_rounds (List.length c.rounds)) rss_end s.traffic.places
    (count (function D _ -> true | _ -> false))
    (count (function S -> true | _ -> false))
    (spread_note (List.rev c.rounds));
  ( c.sent,
    c.failed,
    [
      m "setup_s" "s" setup_s;
      m "items_per_s" "items/s" (median_rate c.rounds);
      m "alloc_words_per_item" "words" alloc;
      m "peak_rss_mb" "MB" rss;
      m "cost_ratio" "ratio" ratio;
    ]
    @ latency_metrics lat )

let json_path j path =
  let rec go j = function
    | [] -> Some j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  go j path

let serve_traced ~seed ~seconds =
  Pool.set_default_jobs 1;
  let emit_acc = acc () in
  let emit inner =
    Event_source.Chunk.make (fun block slots ->
        probe emit_acc (fun () -> Event_source.Chunk.next_chunk inner block slots))
  in
  let s, times = serve_setup ~emit ~seed () setup_reps in
  let snapshot_ms = median (List.map (fun (_, sn, _) -> sn) times) in
  let restore_ms = median (List.map (fun (_, _, r) -> r) times) in
  let generated = setup_reps * Array.length s.traffic.items in
  Metrics.reset ();
  let q0 = Gc.quick_stat () in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let c = client ~probes:true ~first_round:1 ~last_round:max_int ~t_end s.traffic in
  c.spans <- true;
  Trace.set_enabled true;
  let t0 = now_ns () in
  Serve.run s.daemon (conn c);
  let run_ns = now_ns () - t0 in
  Trace.set_enabled false;
  let q1 = Gc.quick_stat () in
  let mj = Metrics.to_json () in
  let cmds = float_of_int c.answered in
  let tasks =
    match json_path mj [ "metrics"; "pool.tasks_run" ] with
    | Some (Json.Int n) -> float_of_int n
    | _ -> raise (Check_failed "metrics: pool.tasks_run missing")
  in
  let fill =
    match json_path mj [ "scheduling"; "serve.batch_fill"; "total" ] with
    | Some h -> (
        match (Json.member "sum" h, Json.member "counts" h) with
        | Some (Json.Int sum), Some (Json.List counts) ->
            let n = List.fold_left (fun a -> function Json.Int k -> a + k | _ -> a) 0 counts in
            float_of_int sum /. float_of_int (max 1 n)
        | _ -> raise (Check_failed "metrics: serve.batch_fill malformed"))
    | None -> raise (Check_failed "metrics: serve.batch_fill missing")
  in
  let places = List.fold_left (fun a r -> a + r.r_items) 0 c.rounds in
  ignore (serve_checks s);
  let daemon_ns = run_ns - c.cb_ns in
  let tr = s.traffic in
  let arr =
    Array.concat
      (List.map
         (fun (it : Item.t) -> [| it.arrival; it.departure; it.id |])
         (Array.to_list tr.items))
  in
  (* The daemon exposes no hooks: the replays take the trace's own
     departures and the open-bins series of a naive FF run of one
     round. *)
  let naive_series =
    let r = Dbp_check.Naive.run Dbp_baselines.Any_fit.first_fit (Instance.of_items (Array.to_list tr.items)) in
    [ (Array.map fst r.series, Array.map snd r.series) ]
  in
  ( c.sent,
    c.failed,
    [
      ("traced.items_per_s", median_rate c.rounds);
      ("emit.ns_per_item", float_of_int emit_acc.ns /. float_of_int generated);
      ("emit.alloc_words_per_item", float_of_int emit_acc.w /. float_of_int generated);
      ("serve.exec_ns_per_command", float_of_int c.exec_ns /. cmds);
      ("serve.framing_ns_per_command", float_of_int (daemon_ns - c.exec_ns) /. cmds);
      ("serve.batch_fill", fill);
      ("pool.tasks_run", 1000. *. tasks /. cmds);
      ("serve.restore_ms", restore_ms);
      ("serve.snapshot_ms", snapshot_ms);
      ("serve.snapshot_bytes", float_of_int (String.length s.snap));
    ]
    @ gc_layers q0 q1 places
    @ replays ~arr ~series:naive_series )

(* ---- main ---- *)

let workloads = List.map fst stream_workloads @ [ "serve_mixed" ]

let out_dir = Filename.concat "perfbench" "out"

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall-clock budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload (String.concat ", " workloads);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  try
    if !trace = 0 then begin
      let attempted, failed, metrics =
        match List.assoc_opt !workload stream_workloads with
        | Some wl ->
            let attempted, ms = stream_untraced wl ~seed ~seconds in
            (attempted, 0, ms)
        | None -> serve_untraced ~seed ~seconds
      in
      check_finite metrics;
      Printf.printf "%s seed=%d: end-to-end, untraced\n" !workload seed;
      print_table metrics;
      print_result ~correct:true ~attempted ~failed metrics
    end
    else begin
      let ref_ms = ref_loop_ms () in
      let attempted, failed, values =
        match List.assoc_opt !workload stream_workloads with
        | Some wl ->
            let attempted, vs = stream_traced wl ~seed ~seconds in
            (attempted, 0, vs)
        | None -> serve_traced ~seed ~seconds
      in
      let metrics = layer_metrics (("host.ref_loop_ms", ref_ms) :: values) in
      check_finite metrics;
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d" !workload seed) in
      Trace.write ~path:(stem ^ ".trace.json");
      write_file (stem ^ ".layers.json")
        (Json.to_string_hum
           (Json.Obj
              (List.map
                 (fun x ->
                   (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
                 metrics)));
      Printf.printf "%s seed=%d: per layer, traced (%s.trace.json)\n" !workload seed stem;
      print_table metrics;
      print_result ~correct:true ~attempted ~failed metrics
    end
  with Check_failed msg ->
    Printf.eprintf "CHECK FAILED: %s\n" msg;
    print_result ~correct:false ~attempted:1 ~failed:0 [];
    exit 1
