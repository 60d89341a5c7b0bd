(* Distinct orders of the dims present at the NoC-boundary temporal levels;
   the same order is applied at every boundary level (Timeloop's pruning
   collapses permutations that only reorder unit loops). *)
let noc_orders arch (m : Mapping.t) ~cap rng =
  let noc = arch.Spec.noc_level in
  let lvls =
    List.init (Spec.level_count arch - noc) (fun k -> noc + k)
  in
  let present =
    List.sort_uniq compare
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun (l : Mapping.loop) ->
               if l.Mapping.bound > 1 then Some l.Mapping.dim else None)
             m.Mapping.levels.(i).Mapping.temporal)
         lvls)
  in
  (* The lexicographic permutations of [present], shuffled: shuffle their
     ranks (the draws depend only on how many there are), then unrank the
     first [cap]. *)
  let n = List.length present in
  let fact = Array.make (n + 1) 1 in
  for i = 1 to n do
    fact.(i) <- fact.(i - 1) * i
  done;
  let ranks = Array.init fact.(n) Fun.id in
  Prim.Rng.shuffle rng ranks;
  (* [k + 1] dims are [left] *)
  let rec unrank r left k =
    if k < 0 then []
    else
      let d = List.nth left (r / fact.(k)) in
      d :: unrank (r mod fact.(k)) (List.filter (( <> ) d) left) (k - 1)
  in
  (lvls, List.init (min cap fact.(n)) (fun i -> unrank ranks.(i) present (n - 1)))

let with_order (m : Mapping.t) lvls order =
  let levels =
    Array.mapi
      (fun i lm ->
        if List.mem i lvls then
          { lm with
            Mapping.temporal =
              List.filter_map
                (fun d ->
                  List.find_opt (fun (l : Mapping.loop) -> l.Mapping.dim = d)
                    lm.Mapping.temporal)
                order }
        else lm)
      m.Mapping.levels
  in
  Mapping.make m.Mapping.layer levels

let search ?(threads = 32) ?(termination = 500) ?(perms_per_factorization = 24)
    ?(metric = Baseline.latency_metric) rng arch layer =
  let t0 = Unix.gettimeofday () in
  let best = ref None and best_metric = ref infinity in
  let valid = ref 0 and samples = ref 0 in
  for _thread = 1 to threads do
    let trng = Prim.Rng.split rng in
    let non_improving = ref 0 in
    while !non_improving < termination do
      incr samples;
      match Sampler.valid ~max_attempts:3 trng arch layer with
      | None -> non_improving := !non_improving + 1
      | Some base ->
        let lvls, orders = noc_orders arch base ~cap:perms_per_factorization trng in
        List.iter
          (fun order ->
            if !non_improving < termination then begin
              let m = with_order base lvls order in
              incr samples;
              if Mapping.is_valid arch m then begin
                incr valid;
                let v = metric arch m in
                if v < !best_metric -. 1e-9 then begin
                  best_metric := v;
                  best := Some m;
                  non_improving := 0
                end
                else incr non_improving
              end
            end)
          orders
    done
  done;
  {
    Baseline.best = !best;
    best_metric = !best_metric;
    samples = !samples;
    valid = !valid;
    elapsed = Unix.gettimeofday () -. t0;
  }
