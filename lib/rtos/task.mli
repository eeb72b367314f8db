(** Guest-level task model.

    Partitions host a (para-virtualised) guest operating system running
    application tasks.  For the experiments the guests are simple busy loops,
    but the task model lets tests and examples measure guest-level response
    times — the quantity whose independence from other partitions the
    hypervisor must preserve. *)

type spec = {
  name : string;
  period : Rthv_engine.Cycles.t;  (** Release period; must be positive. *)
  wcet : Rthv_engine.Cycles.t;  (** Execution demand per job; positive. *)
  priority : int;  (** Lower value = higher priority. *)
  offset : Rthv_engine.Cycles.t;  (** First release time; non-negative. *)
  produces : string option;
      (** IPC port this task sends one message to on each job completion. *)
  consumes : string option;
      (** IPC port this task drains on each job completion. *)
}

val spec :
  name:string ->
  period_us:int ->
  wcet_us:int ->
  ?priority:int ->
  ?offset_us:int ->
  ?produces:string ->
  ?consumes:string ->
  unit ->
  spec
(** Convenience constructor in microseconds; [priority] defaults to 0,
    [offset] to 0, no IPC by default.
    @raise Invalid_argument on non-positive period/wcet. *)

type job = {
  task : spec;
  index : int;  (** 0-based job count of this task. *)
  release : Rthv_engine.Cycles.t;
  mutable remaining : Rthv_engine.Cycles.t;
}

type completion = {
  job_task : string;
  job_index : int;
  released : Rthv_engine.Cycles.t;
  finished : Rthv_engine.Cycles.t;
}

val response_time : completion -> Rthv_engine.Cycles.t

val utilisation : spec list -> float
(** Sum of wcet/period over the set. *)
