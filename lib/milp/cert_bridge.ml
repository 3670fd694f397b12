module Box = Cv_interval.Box
module Interval = Cv_interval.Interval
module Cert = Cv_cert.Cert
module Lp = Cv_lp.Lp
module Lp_cert = Cv_lp.Lp_cert

let goal ?max_nodes ?max_iters (enc : Relu_encoding.encoding) compiled ~output
    ~side ~bound =
  if output < 0 || output >= Array.length enc.outputs then None
  else begin
    let expr = enc.outputs.(output) in
    Lp.set_objective_compiled compiled ~maximize:(side = `Upper) expr.terms;
    (* [bound] on the output is [std ≥ target] in the lowering's frame:
       the model objective [expr.terms] is [sign·(std + shift)]. *)
    let sign, shift = Lp.compiled_frame compiled in
    let target = (sign *. (bound -. expr.const)) -. shift in
    Option.map
      (fun (br : Lp_cert.branch_result) ->
        {
          Cert.mg_lp = br.br_system;
          mg_binaries = br.br_binaries;
          mg_target = br.br_bound;
          mg_output = output;
          mg_side = side;
          mg_sign = sign;
          mg_shift = shift;
          mg_const = expr.const;
          mg_tree = br.br_tree;
        })
      (Lp_cert.branch_and_certify ?max_nodes ?max_iters ~target compiled
         ~binaries:enc.problem.binaries)
  end

let safe_cert ?max_nodes ?max_iters ~mode ~solver ~fingerprint net ~din ~dout
    =
  match Relu_encoding.encode ~net ~input_box:din with
  | exception Invalid_argument _ -> None
  | enc ->
    let compiled = Lp.compile ~fixable:enc.problem.binaries enc.problem.lp in
    let goals = ref [] in
    let ok = ref true in
    for k = 0 to Box.dim dout - 1 do
      let iv = Box.get dout k in
      let need side bound =
        if !ok then
          match
            goal ?max_nodes ?max_iters enc compiled ~output:k ~side ~bound
          with
          | Some g -> goals := g :: !goals
          | None -> ok := false
      in
      if Interval.hi iv < Float.infinity then need `Upper (Interval.hi iv);
      if Interval.lo iv > Float.neg_infinity then need `Lower (Interval.lo iv)
    done;
    if not !ok then None
    else begin
      let cert =
        {
          Cert.mode;
          solver;
          fingerprint;
          claim = Cert.Network_safe { net; din; dout };
          proof = Cert.P_milp_goals (List.rev !goals);
        }
      in
      match Cv_cert.Check.check cert with
      | Cv_cert.Check.Valid -> Some cert
      | Invalid _ -> None
    end
