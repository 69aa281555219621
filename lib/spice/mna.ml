module Sp = Numerics.Sparse
module Cg = Numerics.Cg

type solution = {
  netlist : Netlist.t;
  voltages : float array;
  cg_iterations : int;
  residual : float;
  converged : bool;
}

exception Unsupported of string

type solver = Cg | Cholesky

(* Representatives after merging zero-ohm shorts. *)
let short_representatives net =
  let n = Netlist.num_nodes net in
  let uf = Unionfind.create n in
  Array.iter
    (function
      | Netlist.Resistor { pos; neg; ohms; _ } when ohms = 0. ->
        ignore (Unionfind.union uf pos neg)
      | Netlist.Resistor _ | Netlist.Current_source _ | Netlist.Voltage_source _
        -> ())
    net.Netlist.elements;
  uf

(* Propagate pinned voltages through voltage sources until fixpoint. *)
let pinned_voltages net uf =
  let n = Netlist.num_nodes net in
  let pinned : float option array = Array.make n None in
  (match net.Netlist.ground with
  | Some g -> pinned.(Unionfind.find uf g) <- Some 0.
  | None -> ());
  let sources =
    Array.to_list net.Netlist.elements
    |> List.filter_map (function
         | Netlist.Voltage_source { pos; neg; volts; name } ->
           Some (Unionfind.find uf pos, Unionfind.find uf neg, volts, name)
         | Netlist.Resistor _ | Netlist.Current_source _ -> None)
  in
  if sources <> [] && net.Netlist.ground = None then
    raise (Unsupported "voltage sources without a ground node");
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p, q, volts, name) ->
        match (pinned.(p), pinned.(q)) with
        | Some vp, Some vq ->
          if Float.abs (vp -. vq -. volts) > 1e-9 *. (Float.abs volts +. 1.) then
            raise
              (Unsupported
                 (Printf.sprintf "conflicting voltage constraints at %s" name))
        | Some vp, None ->
          pinned.(q) <- Some (vp -. volts);
          changed := true
        | None, Some vq ->
          pinned.(p) <- Some (vq +. volts);
          changed := true
        | None, None -> ())
      sources
  done;
  List.iter
    (fun (p, q, _, name) ->
      if pinned.(p) = None || pinned.(q) = None then
        raise
          (Unsupported
             (Printf.sprintf "floating voltage source %s (not pinned to ground)"
                name)))
    sources;
  pinned

let solve ?(tol = 1e-10) ?max_iter ?(solver = Cg) net =
  let n = Netlist.num_nodes net in
  if n = 0 then invalid_arg "Mna.solve: empty netlist";
  let uf = short_representatives net in
  let pinned = pinned_voltages net uf in
  (* Free representative numbering. *)
  let free_index = Array.make n (-1) in
  let free_count = ref 0 in
  for v = 0 to n - 1 do
    if Unionfind.find uf v = v && pinned.(v) = None then begin
      free_index.(v) <- !free_count;
      incr free_count
    end
  done;
  let nf = !free_count in
  let has_reference = Array.exists Option.is_some pinned in
  if not has_reference then
    raise (Unsupported "no ground or voltage source to set a reference");
  let builder = Sp.Builder.create ~expected_nnz:(4 * Array.length net.Netlist.elements) nf nf in
  let rhs = Array.make nf 0. in
  let stamp_conductance p q g =
    (* p, q are representatives. *)
    let fp = free_index.(p) and fq = free_index.(q) in
    (match (fp >= 0, fq >= 0) with
    | true, true ->
      Sp.Builder.add builder fp fp g;
      Sp.Builder.add builder fq fq g;
      Sp.Builder.add builder fp fq (-.g);
      Sp.Builder.add builder fq fp (-.g)
    | true, false ->
      Sp.Builder.add builder fp fp g;
      rhs.(fp) <- rhs.(fp) +. (g *. Option.get pinned.(q))
    | false, true ->
      Sp.Builder.add builder fq fq g;
      rhs.(fq) <- rhs.(fq) +. (g *. Option.get pinned.(p))
    | false, false -> ())
  in
  Array.iter
    (function
      | Netlist.Resistor { pos; neg; ohms; _ } when ohms > 0. ->
        let p = Unionfind.find uf pos and q = Unionfind.find uf neg in
        if p <> q then stamp_conductance p q (1. /. ohms)
      | Netlist.Resistor _ -> () (* shorts already merged *)
      | Netlist.Current_source { pos; neg; amps; _ } ->
        (* amps flows out of [pos] into [neg] through the source. *)
        let p = Unionfind.find uf pos and q = Unionfind.find uf neg in
        if free_index.(p) >= 0 then
          rhs.(free_index.(p)) <- rhs.(free_index.(p)) -. amps;
        if free_index.(q) >= 0 then
          rhs.(free_index.(q)) <- rhs.(free_index.(q)) +. amps
      | Netlist.Voltage_source _ -> ())
    net.Netlist.elements;
  let matrix = Sp.Builder.to_csr builder in
  (* Floating free nodes: no conductance at all. Pin quietly to 0 V when
     unexcited, reject when a source drives them. *)
  let diag = Sp.diagonal matrix in
  let fixup = Sp.Builder.create ~expected_nnz:nf nf nf in
  for i = 0 to nf - 1 do
    if diag.(i) = 0. then
      if rhs.(i) = 0. then Sp.Builder.add fixup i i 1.
      else raise (Unsupported "current source into a floating node")
  done;
  let matrix =
    if Sp.nnz (Sp.Builder.to_csr fixup) = 0 then matrix
    else Sp.add matrix (Sp.Builder.to_csr fixup)
  in
  let result =
    if nf = 0 then
      { Numerics.Cg.x = [||]; iterations = 0; residual = 0.; converged = true }
    else begin
      match solver with
      | Cg -> Numerics.Cg.solve ?max_iter ~tol matrix rhs
      | Cholesky ->
        let x = Numerics.Cholesky.solve (Numerics.Cholesky.factorize matrix) rhs in
        let r = Sp.mul_vec matrix x in
        let num = ref 0. and den = ref 1e-300 in
        Array.iteri
          (fun i ri ->
            num := !num +. ((rhs.(i) -. ri) ** 2.);
            den := !den +. (rhs.(i) ** 2.))
          r;
        let residual = sqrt (!num /. !den) in
        (* The CG criterion on the computed residual; false on NaN. *)
        {
          Numerics.Cg.x;
          iterations = 0;
          residual;
          converged = residual <= tol *. 10.;
        }
    end
  in
  let voltages =
    Array.init n (fun v ->
        let rep = Unionfind.find uf v in
        match pinned.(rep) with
        | Some volts -> volts
        | None -> result.Cg.x.(free_index.(rep)))
  in
  {
    netlist = net;
    voltages;
    cg_iterations = result.Cg.iterations;
    residual = result.Cg.residual;
    converged = result.Cg.converged;
  }

let resistor_current sol e =
  if e < 0 || e >= Array.length sol.netlist.Netlist.elements then
    invalid_arg "Mna.resistor_current: bad element index";
  match sol.netlist.Netlist.elements.(e) with
  | Netlist.Resistor { pos; neg; ohms; _ } ->
    if ohms = 0. then 0.
    else (sol.voltages.(pos) -. sol.voltages.(neg)) /. ohms
  | Netlist.Current_source _ | Netlist.Voltage_source _ ->
    invalid_arg "Mna.resistor_current: element is not a resistor"

let node_voltage sol name =
  Option.map
    (fun i -> sol.voltages.(i))
    (Netlist.find_node sol.netlist name)

let ir_drop sol ~supply = Array.map (fun v -> supply -. v) sol.voltages
