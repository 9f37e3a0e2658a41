(* Reference answers for the fixed instances (benchmark/golden.json),
   keyed by an instance description; an instance without an entry (the
   smoke test's tiny ones) is checked against a computed reference
   instead. *)

let load (ctx : Harness.ctx) =
  let path = Filename.concat ctx.Harness.root "benchmark/golden.json" in
  Serve.Json.of_string (In_channel.with_open_text path In_channel.input_all)

let find ctx ~instance field =
  Option.bind (Serve.Json.member instance (load ctx)) (Serve.Json.member field)

let string ctx ~instance field =
  match find ctx ~instance field with
  | Some (Putil.Obs.String s) -> Some s
  | _ -> None

let float ctx ~instance field =
  match find ctx ~instance field with
  | Some (Putil.Obs.Float f) -> Some f
  | Some (Putil.Obs.Int i) -> Some (Float.of_int i)
  | _ -> None

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
