(** Bug reports and the report sink.

    Checkers deposit findings here; the sink deduplicates (the same defect
    is typically reached on many paths) and keeps, per bug, the trace and
    replay script of the first path that exposed it — the replayable
    evidence of §3.5. *)

type kind =
  | Memory_error        (** OOB access, access to unowned/freed memory *)
  | Segfault            (** null/bad pointer dereference *)
  | Race_condition      (** crash or corruption under a symbolic interrupt *)
  | Resource_leak
  | Lock_misuse         (** deadlock, wrong-variant or unbalanced release *)
  | Kernel_crash        (** bugcheck raised by the kernel *)
  | Infinite_loop

val string_of_kind : kind -> string

type bug = {
  b_kind : kind;
  b_driver : string;
  b_entry : string;            (** entry point under exercise *)
  b_pc : int;                  (** driver pc at detection *)
  b_message : string;
  b_key : string;              (** deduplication key *)
  b_state_id : int;
  b_events : Ddt_trace.Event.t list;       (** trace, newest first *)
  b_mem_accesses : int;
  (** loads and stores on the path ([Symstate.mem_accesses]) *)
  b_choices : (string * string) list;      (** annotation decisions taken *)
  b_with_interrupt : bool;
  b_replay : Ddt_trace.Replay.script;
  (** concrete inputs + system events that reproduce this path (§3.5) *)
}

val of_state :
  ?replay:Ddt_trace.Replay.script -> Ddt_symexec.Symstate.t -> kind:kind ->
  driver:string -> key:string -> pc:int -> string -> bug
(** [of_state st ~kind ~driver ~key ~pc message] is the bug the checkers
    report against [st]: entry point, state id, trace, memory-access
    count, annotation choices and interrupt flag come from [st].
    [replay] defaults to [Ddt_symexec.Exec.replay_script st]. *)

type incident = Ddt_symexec.Guard.incident
(** A fault of the testing engine itself (a faulting state, a solver
    verdict left Unknown), quarantined by
    [Ddt_symexec.Guard]. Engine incidents are not driver findings: they
    are kept apart from the bug list, so they can never perturb bug
    keys, deduplication or ordering — but each carries its state's
    replayable script (§3.5 evidence for engine faults). *)

type sink

val create_sink : driver:string -> sink
(** An empty sink for one driver's session; the checkers key and label
    their findings with {!driver}. *)

val driver : sink -> string
val report : sink -> key:string -> (unit -> bug) -> unit
(** [report sink ~key mk] deposits [mk ()] unless a bug with [b_key =
    key] is already in the sink. [mk] runs only for a new key, and at
    once: it builds the replay script (a solver call over the whole
    path) from the reporting state as it is now.
    @raise Invalid_argument if [mk ()] has another [b_key]. *)
val bugs : sink -> bug list
(** In first-reported order. *)

val count : sink -> int

val pp_bug : Format.formatter -> bug -> unit
val pp_incident : Format.formatter -> incident -> unit
