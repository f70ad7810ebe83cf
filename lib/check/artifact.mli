(** Failing-schedule artifacts: the JSON files the fuzzer writes and
    [paso-sim check --replay] reads back.

    Format (version 1):
    {v
    { "version": 1,
      "config": { "n":8, "lambda":2, "classing":"head", "storage":"hash",
                  "policy":"static", "coalesce":false, "eager":false,
                  "wan":0, "repair":"none", "seed":42,
                  "arms": [ {"site":"vsync.gcast.deliver", "skip":3,
                             "times":1, "action":"crash-hit-node"} ] },
      "steps": [ ["insert",3,1], ["crash",2], ["recover"], ["advance"] ],
      "violations": [ ["replica-consistency", "class a/2: ..."] ],
      "trace_digest": "9f86d081..." }
    v}
    [steps] entries are [[name]] for nullary steps and
    [[name, machine-hint, head-hint]] (or [[name, machine-hint]] for
    [crash]) otherwise. Every knob is spelled by its
    {!Schedule.Knob}. The whole file round-trips: [load] of a [save]
    yields the identical schedule, and replaying it reproduces the
    recorded [trace_digest] exactly. *)

type t = {
  a_config : Schedule.config;
  a_steps : Schedule.step list;
  a_violations : (string * string) list;  (** (invariant, detail) *)
  a_trace_digest : string;
}

val of_outcome : Schedule.config -> Schedule.step list -> Runner.outcome -> t

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** [Error] on a malformed document, an unknown knob spelling, or a
    config {!Schedule.validate} refuses — so a loaded artifact always
    runs. *)

val config_to_json : Schedule.config -> Json.t

val config_of_json : Json.t -> (Schedule.config, string) result
(** [config_of_json (config_to_json c) = Ok c] for every valid [c]. *)

val save : string -> t -> unit
(** Write (pretty-printed) to the given path, creating it. *)

val load : string -> (t, string) result
(** Parse an artifact file; [Error] describes the first problem. *)
