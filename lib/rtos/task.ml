module Cycles = Rthv_engine.Cycles

type spec = {
  name : string;
  period : Cycles.t;
  wcet : Cycles.t;
  priority : int;
  offset : Cycles.t;
  produces : string option;
  consumes : string option;
}

let spec ~name ~period_us ~wcet_us ?(priority = 0) ?(offset_us = 0) ?produces
    ?consumes () =
  if period_us <= 0 then invalid_arg "Task.spec: period must be positive";
  if wcet_us <= 0 then invalid_arg "Task.spec: wcet must be positive";
  if offset_us < 0 then invalid_arg "Task.spec: offset must be non-negative";
  {
    name;
    period = Cycles.of_us period_us;
    wcet = Cycles.of_us wcet_us;
    priority;
    offset = Cycles.of_us offset_us;
    produces;
    consumes;
  }

type job = {
  task : spec;
  index : int;
  release : Cycles.t;
  mutable remaining : Cycles.t;
}

type completion = {
  job_task : string;
  job_index : int;
  released : Cycles.t;
  finished : Cycles.t;
}

let response_time completion =
  Cycles.( - ) completion.finished completion.released

let utilisation specs =
  List.fold_left
    (fun acc spec ->
      acc +. (float_of_int spec.wcet /. float_of_int spec.period))
    0. specs
