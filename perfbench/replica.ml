(* Stage-split replica of [Cosa.schedule] for the single-rung strategies
   ([Joint] and [Two_stage]) with default options, driven from outside the
   program so the traced run can put a span around each stage's public
   entry point and attribute time to the layer that owns it.

   It must stay step-for-step identical to the MIP rung of
   [Cosa.schedule_impl]: sampled incumbent, formulation, MIP start,
   branch-and-bound, decode (plus the exact NoC-order sub-solve for
   two-stage), repair, certification, model scoring. The traced run
   compares its mapping with [Cosa.schedule]'s byte for byte and fails on
   any difference, because per-layer numbers of a different pipeline would
   describe a different program. *)

type outcome = {
  mapping : Mapping.t;
  objective : Cosa.objective_breakdown;
  bb : Milp.Bb.result;
  repaired : bool;
  lp_rows : int;
  certified : bool;
}

let span name f = Telemetry.Trace.with_span ~cat:"perfbench" name f

(* [Cosa.schedule]'s MIP start: best of eight valid samples under the CoSA
   objective, first one winning ties. *)
let best_sampled ~weights arch layer =
  let rng = Prim.Rng.create 0x5eed in
  let scored =
    List.filter_map
      (fun _ ->
        Option.map
          (fun c -> ((Cosa_objective.of_mapping ~weights arch c).Cosa_objective.total, c))
          (Sampler.valid rng arch layer))
      (List.init 8 Fun.id)
  in
  match scored with
  | [] -> None
  | first :: rest ->
    Some
      (snd
         (List.fold_left
            (fun (bs, bm) (s, m) -> if s < bs then (s, m) else (bs, bm))
            first rest))

let schedule ~joint ~node_limit ~time_limit arch layer =
  let weights = Cosa.calibrate arch in
  let dl = Robust.Deadline.after time_limit in
  let warm = span "core.mip_start" (fun () -> best_sampled ~weights arch layer) in
  let f =
    span "core.build" (fun () ->
        Cosa_formulation.build ~weights ~joint_permutation:joint arch layer)
  in
  let warm_start =
    span "core.mip_start" (fun () -> Option.bind warm (Cosa_formulation.mip_start f))
  in
  let bb =
    span "milp.bb" (fun () ->
        Milp.Bb.solve ~node_limit ~time_limit:(Robust.Deadline.remaining dl) ~deadline:dl
          ~priority:f.Cosa_formulation.priority ~gap:0.05 ?warm_start ~warm_lp:true
          f.Cosa_formulation.lp)
  in
  match bb.Milp.Bb.status with
  | Milp.Bb.Infeasible | Milp.Bb.Unbounded | Milp.Bb.No_solution ->
    Error "branch-and-bound returned no solution"
  | Milp.Bb.Optimal | Milp.Bb.Feasible -> (
    let decoded =
      span "core.decode" (fun () ->
          match Cosa_decode.decode_r f bb with
          | Error e -> Error (Robust.Failure.to_string e)
          | Ok m ->
            let m = if joint then m else Cosa_decode.best_noc_order ~weights arch m in
            let m, repaired = Cosa_decode.repair arch m in
            if Mapping.is_valid arch m then Ok (m, repaired)
            else Error "decoded mapping is invalid")
    in
    match decoded with
    | Error e -> Error e
    | Ok (mapping, repaired) ->
      let lp_cert =
        span "certify.lp" (fun () ->
            Certify.Lp_cert.check ~obj:bb.Milp.Bb.obj f.Cosa_formulation.lp bb.Milp.Bb.values)
      in
      let map_cert = span "certify.mapping" (fun () -> Certify.Mapping_cert.check arch mapping) in
      (* [Cosa.schedule] scores each MIP candidate with the analytical model *)
      ignore (span "amodel.evaluate" (fun () -> Model.evaluate arch mapping));
      Ok
        {
          mapping;
          objective = Cosa_objective.of_mapping ~weights arch mapping;
          bb;
          repaired;
          lp_rows = Milp.Lp.num_constrs f.Cosa_formulation.lp;
          certified = Certify.Certificate.(is_certified (combine lp_cert map_cert));
        })
