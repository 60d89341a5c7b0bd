type loop = { dim : Dims.dim; bound : int }

type level_map = { temporal : loop list; spatial : loop list }

type t = { layer : Layer.t; levels : level_map array }

let make layer levels = { layer; levels }

(* The flat per-mapping view: one walk over the loop lists, then every
   product the checks and the analytical model need is an array read. *)
type view = {
  nlev : int;
  cum : int array;
  sprod : int array;
  tdim : int array;
  tbound : int array;
  tend : int array;
}

(* Multiply level [i]'s loops into block [o] of [cum]; temporal loops also
   land in the flat arrays from position [k], spatial ones in [sprod.(i)]. *)
let rec add_temporal vw o k = function
  | [] -> ()
  | l :: rest ->
    let di = Dims.dim_index l.dim in
    vw.tdim.(k) <- di;
    vw.tbound.(k) <- l.bound;
    vw.cum.(o + di) <- vw.cum.(o + di) * l.bound;
    add_temporal vw o (k + 1) rest

let rec add_spatial vw o i = function
  | [] -> ()
  | l :: rest ->
    let di = Dims.dim_index l.dim in
    vw.cum.(o + di) <- vw.cum.(o + di) * l.bound;
    vw.sprod.(i) <- vw.sprod.(i) * l.bound;
    add_spatial vw o i rest

let view t =
  let nlev = Array.length t.levels in
  let tend = Array.make (nlev + 1) 0 in
  for i = nlev - 1 downto 0 do
    tend.(i) <- tend.(i + 1) + List.length t.levels.(i).temporal
  done;
  let vw =
    { nlev; cum = Array.make ((nlev + 1) * 7) 1; sprod = Array.make nlev 1;
      tdim = Array.make tend.(0) 0; tbound = Array.make tend.(0) 0; tend }
  in
  for i = 0 to nlev - 1 do
    let o = 7 * (i + 1) in
    Array.blit vw.cum (o - 7) vw.cum o 7;
    add_temporal vw o tend.(i + 1) t.levels.(i).temporal;
    add_spatial vw o i t.levels.(i).spatial
  done;
  vw

let dim_product t ~upto d =
  let vw = view t in
  vw.cum.((7 * max 0 (min upto vw.nlev)) + Dims.dim_index d)

let spatial_product t i =
  List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).spatial

let temporal_product t i =
  List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).temporal

(* Tile extent of tensor [v] over the dim products in block [o] of [cum]
   (indices R=0 S=1 P=2 Q=3 C=4 K=5 N=6). IA gets the exact sliding-window
   extent ((p-1)*stride + r per axis). *)
let tile_of_cum ~stride cum o = function
  | Dims.W -> float_of_int (cum.(o) * cum.(o + 1) * cum.(o + 4) * cum.(o + 5))
  | Dims.OA -> float_of_int (cum.(o + 2) * cum.(o + 3) * cum.(o + 5) * cum.(o + 6))
  | Dims.IA ->
    let w = ((cum.(o + 2) - 1) * stride) + cum.(o) in
    let h = ((cum.(o + 3) - 1) * stride) + cum.(o + 1) in
    float_of_int (w * h * cum.(o + 4) * cum.(o + 6))

let tile_words arch t i v =
  ignore arch;
  let vw = view t in
  tile_of_cum ~stride:t.layer.Layer.stride vw.cum (7 * max 0 (min i vw.nlev)) v

type violation =
  | Bad_factorization of Dims.dim * int * int
  | Spatial_overflow of int * int * int
  | Buffer_overflow of int * Dims.tensor * float * float

let capacities arch =
  let dram = Spec.dram_level arch in
  Array.init (3 * Spec.level_count arch) (fun k ->
      let i = k / 3 and v = Dims.tensor_of_index (k mod 3) in
      if i <> dram && Spec.stores arch i v then Spec.capacity_words arch i v else infinity)

let iter_overflows arch caps ~stride vw report =
  for i = 0 to vw.nlev - 1 do
    let fanout = arch.Spec.levels.(i).Spec.fanout in
    if vw.sprod.(i) > fanout then report (Spatial_overflow (i, vw.sprod.(i), fanout))
  done;
  for i = 0 to vw.nlev - 1 do
    for vi = 0 to 2 do
      let cap = caps.((3 * i) + vi) in
      if cap < infinity then begin
        let v = Dims.tensor_of_index vi in
        let words = tile_of_cum ~stride vw.cum (7 * i) v in
        if words > cap then report (Buffer_overflow (i, v, words, cap))
      end
    done
  done

let iter_violations arch t report =
  let nlev = Array.length t.levels in
  if nlev <> Spec.level_count arch then
    (* typed, not [Invalid_argument]: validate runs inside the scheduling
       pipeline, which surfaces every failure as a [Robust.Failure.t] *)
    raise
      (Robust.Failure.Error
         (Robust.Failure.Invalid_input
            "Mapping.validate: level count mismatch with architecture"));
  let vw = view t in
  for di = 0 to 6 do
    let d = Dims.dim_of_index di in
    let prod = vw.cum.((7 * nlev) + di) and expect = Layer.padded_bound t.layer d in
    if prod <> expect then report (Bad_factorization (d, prod, expect))
  done;
  iter_overflows arch (capacities arch) ~stride:t.layer.Layer.stride vw report

let validate arch t =
  let violations = ref [] in
  iter_violations arch t (fun v -> violations := v :: !violations);
  List.rev !violations

let is_valid arch t =
  match iter_violations arch t (fun _ -> raise_notrace Exit) with
  | () -> true
  | exception Exit -> false

let violation_to_string = function
  | Bad_factorization (d, prod, expect) ->
    Printf.sprintf "dim %s factors to %d, expected %d" (Dims.dim_name d) prod expect
  | Spatial_overflow (i, used, fanout) ->
    Printf.sprintf "level %d spatial %d exceeds fanout %d" i used fanout
  | Buffer_overflow (i, v, words, cap) ->
    Printf.sprintf "level %d tensor %s tile %.0f words exceeds capacity %.0f" i
      (Dims.tensor_name v) words cap

let total_temporal t =
  let acc = ref 1 in
  Array.iter (fun lm -> List.iter (fun l -> acc := !acc * l.bound) lm.temporal) t.levels;
  !acc

let pe_count_used arch t = spatial_product t arch.Spec.noc_level

let to_loop_nest arch t =
  let buf = Buffer.create 512 in
  let indent = ref 0 in
  let pad () = String.make (2 * !indent) ' ' in
  for i = Array.length t.levels - 1 downto 0 do
    let lm = t.levels.(i) in
    Buffer.add_string buf
      (Printf.sprintf "%s// %s\n" (pad ()) arch.Spec.levels.(i).Spec.lname);
    List.iter
      (fun l ->
        if l.bound > 1 then begin
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s in [0:%d)\n" (pad ()) (Dims.dim_name l.dim) l.bound);
          incr indent
        end)
      lm.temporal;
    List.iter
      (fun l ->
        if l.bound > 1 then begin
          Buffer.add_string buf
            (Printf.sprintf "%sspatial_for %s in [0:%d)\n" (pad ()) (Dims.dim_name l.dim)
               l.bound);
          incr indent
        end)
      lm.spatial
  done;
  Buffer.add_string buf (Printf.sprintf "%sO[n,k,p,q] += W[k,c,r,s] * I[n,c,..]\n" (pad ()));
  Buffer.contents buf

let fingerprint t =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i lm ->
      Buffer.add_string buf (Printf.sprintf "L%d[" i);
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "%s%d " (Dims.dim_name l.dim) l.bound))
        lm.temporal;
      Buffer.add_string buf "|";
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "%s%d " (Dims.dim_name l.dim) l.bound))
        lm.spatial;
      Buffer.add_string buf "]")
    t.levels;
  Buffer.contents buf
