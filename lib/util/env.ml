(** POWERLIM_* environment knobs: parse, validate, warn once.  See
    env.mli. *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 8
let warned_mutex = Mutex.create ()
let rejected_log : (string * string) list ref = ref []

let warn_once name ~value ~expected ~default_s =
  Mutex.lock warned_mutex;
  let first = not (Hashtbl.mem warned name) in
  if first then begin
    Hashtbl.replace warned name ();
    rejected_log := (name, value) :: !rejected_log
  end;
  Mutex.unlock warned_mutex;
  if first then
    Printf.eprintf "powerlim: ignoring %s=%S (expected %s); using default %s\n%!"
      name value expected default_s

let rejected () =
  Mutex.lock warned_mutex;
  let l = List.rev !rejected_log in
  Mutex.unlock warned_mutex;
  l

let reset_warnings () =
  Mutex.lock warned_mutex;
  Hashtbl.reset warned;
  rejected_log := [];
  Mutex.unlock warned_mutex

(* The empty string counts as unset everywhere: [Unix.putenv] cannot
   remove a variable, so tests and in-process benchmarks set "" to hand
   a knob back to its default. *)
let lookup name =
  match Sys.getenv_opt name with
  | None -> None
  | Some v -> ( match String.trim v with "" -> None | v -> Some v)

let flag name ~default =
  match lookup name with
  | None -> default
  | Some v ->
  match String.lowercase_ascii v with
  | "0" | "false" | "off" | "no" -> false
  | "1" | "true" | "on" | "yes" -> true
  | _ ->
      warn_once name ~value:v ~expected:"0/false/off/no or 1/true/on/yes"
        ~default_s:(string_of_bool default);
      default

let int name ~default =
  match lookup name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          warn_once name ~value:v ~expected:"an integer"
            ~default_s:(string_of_int default);
          default)
