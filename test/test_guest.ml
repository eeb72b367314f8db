module Guest = Rthv_rtos.Guest
module Task = Rthv_rtos.Task
module Irq_queue = Rthv_rtos.Irq_queue

let us = Testutil.us

let test_busy_loop_demand () =
  let g = Guest.create ~name:"p" () in
  (match Guest.demand g with
  | Guest.Filler -> ()
  | _ -> Alcotest.fail "busy loop expected");
  let idle = Guest.create ~busy_loop:false ~name:"p" () in
  match Guest.demand idle with
  | Guest.Idle -> ()
  | _ -> Alcotest.fail "idle expected"

let test_bottom_handler_first () =
  let spec = Task.spec ~name:"t" ~period_us:100 ~wcet_us:10 () in
  let g = Guest.create ~tasks:[ spec ] ~name:"p" () in
  Guest.advance_to g 0;
  let item = Irq_queue.make_item ~irq:1 ~line:0 ~arrival:0 ~work:(us 5) in
  Irq_queue.push (Guest.queue g) item;
  match Guest.demand g with
  | Guest.Bottom_handler i ->
      Alcotest.(check int) "the pushed event" 1 i.Irq_queue.irq
  | _ -> Alcotest.fail "bottom handler must run before tasks"

let test_task_release_and_completion () =
  let spec = Task.spec ~name:"t" ~period_us:100 ~wcet_us:10 () in
  let g = Guest.create ~tasks:[ spec ] ~name:"p" () in
  Guest.advance_to g 0;
  (match Guest.demand g with
  | Guest.Task_job job ->
      Alcotest.(check int) "first job" 0 job.Task.index;
      Guest.consume g ~now:(us 10) ~elapsed:(us 10) (Guest.Task_job job)
  | _ -> Alcotest.fail "job expected at t=0");
  let completions = Guest.take_completions g in
  (match completions with
  | [ c ] ->
      Alcotest.(check string) "task name" "t" c.Task.job_task;
      Testutil.check_cycles "response time" (us 10) (Task.response_time c)
  | _ -> Alcotest.fail "one completion expected");
  Alcotest.(check (list string)) "completions drained" []
    (List.map (fun c -> c.Task.job_task) (Guest.take_completions g))

let test_priority_order () =
  let low = Task.spec ~name:"low" ~period_us:100 ~wcet_us:10 ~priority:5 () in
  let high = Task.spec ~name:"high" ~period_us:100 ~wcet_us:10 ~priority:1 () in
  let g = Guest.create ~tasks:[ low; high ] ~name:"p" () in
  Alcotest.(check bool) "nothing ready before the first release" false
    (Guest.has_ready g);
  Guest.advance_to g 0;
  Alcotest.(check bool) "released jobs are ready" true (Guest.has_ready g);
  Alcotest.(check string) "pick_ready follows the policy" "high"
    (Guest.pick_ready g).Task.task.Task.name;
  match Guest.demand g with
  | Guest.Task_job job ->
      Alcotest.(check string) "higher priority first" "high"
        job.Task.task.Task.name
  | _ -> Alcotest.fail "job expected"

let test_next_release () =
  let spec =
    Task.spec ~name:"t" ~period_us:100 ~wcet_us:10 ~offset_us:50 ()
  in
  let g = Guest.create ~tasks:[ spec ] ~name:"p" () in
  Alcotest.(check (option int)) "first release at offset" (Some (us 50))
    (Guest.next_release g);
  Guest.advance_to g (us 50);
  Alcotest.(check (option int)) "next release one period later"
    (Some (us 150)) (Guest.next_release g);
  Alcotest.(check int) "one job pending" 1 (Guest.backlog g);
  Alcotest.(check int) "release before a later limit" (us 150)
    (Guest.next_release_before g (us 1_000));
  Alcotest.(check int) "an earlier limit wins" (us 120)
    (Guest.next_release_before g (us 120));
  let no_tasks = Guest.create ~name:"q" () in
  Alcotest.(check (option int)) "no tasks, no releases" None
    (Guest.next_release no_tasks);
  Alcotest.(check int) "no tasks: the limit" (us 7)
    (Guest.next_release_before no_tasks (us 7))

let test_time_accounting () =
  let g = Guest.create ~busy_loop:false ~name:"p" () in
  Guest.consume g ~now:(us 10) ~elapsed:(us 10) Guest.Idle;
  Guest.consume g ~now:(us 20) ~elapsed:(us 10) Guest.Filler;
  Testutil.check_cycles "idle tracked" (us 10) (Guest.idle_time g);
  Testutil.check_cycles "filler counts as cpu" (us 10) (Guest.cpu_time g)

let test_bottom_handler_partial_then_complete () =
  let g = Guest.create ~name:"p" () in
  let item = Irq_queue.make_item ~irq:3 ~line:0 ~arrival:0 ~work:(us 10) in
  Irq_queue.push (Guest.queue g) item;
  Guest.consume g ~now:(us 4) ~elapsed:(us 4) (Guest.Bottom_handler item);
  Testutil.check_cycles "partial remaining" (us 6) item.Irq_queue.remaining;
  Alcotest.(check int) "still queued" 1 (Irq_queue.length (Guest.queue g));
  Guest.consume g ~now:(us 10) ~elapsed:(us 6) (Guest.Bottom_handler item);
  Alcotest.(check int) "dequeued on completion" 0
    (Irq_queue.length (Guest.queue g));
  Alcotest.(check bool) "queue empty" true (Irq_queue.is_empty (Guest.queue g));
  Testutil.check_cycles "item fully consumed" 0 item.Irq_queue.remaining;
  Testutil.check_cycles "cpu attributed" (us 10) (Guest.cpu_time g);
  (* The next bottom handler is the queue head, not the completed one. *)
  let next = Irq_queue.make_item ~irq:4 ~line:0 ~arrival:0 ~work:(us 1) in
  Irq_queue.push (Guest.queue g) next;
  Alcotest.(check int) "next item at the head" 4
    (Irq_queue.head (Guest.queue g)).Irq_queue.irq

let test_over_attribution_rejected () =
  let g = Guest.create ~name:"p" () in
  let item = Irq_queue.make_item ~irq:1 ~line:0 ~arrival:0 ~work:(us 5) in
  Irq_queue.push (Guest.queue g) item;
  Alcotest.check_raises "over-attribution"
    (Invalid_argument "Guest.consume: over-attribution to bottom handler")
    (fun () ->
      Guest.consume g ~now:(us 10) ~elapsed:(us 10) (Guest.Bottom_handler item))

let test_advance_monotonicity () =
  let g = Guest.create ~name:"p" () in
  Guest.advance_to g (us 100);
  Alcotest.check_raises "time cannot rewind"
    (Invalid_argument "Guest.advance_to: time must be non-decreasing")
    (fun () -> Guest.advance_to g (us 50))

let test_task_spec_validation () =
  Alcotest.check_raises "period positive"
    (Invalid_argument "Task.spec: period must be positive") (fun () ->
      ignore (Task.spec ~name:"x" ~period_us:0 ~wcet_us:1 () : Task.spec));
  Testutil.close "utilisation" 0.3
    (Task.utilisation
       [
         Task.spec ~name:"a" ~period_us:100 ~wcet_us:10 ();
         Task.spec ~name:"b" ~period_us:50 ~wcet_us:10 ();
       ])

let suite =
  [
    Alcotest.test_case "busy loop vs idle" `Quick test_busy_loop_demand;
    Alcotest.test_case "bottom handlers preempt tasks" `Quick
      test_bottom_handler_first;
    Alcotest.test_case "release and completion" `Quick
      test_task_release_and_completion;
    Alcotest.test_case "fixed-priority pick" `Quick test_priority_order;
    Alcotest.test_case "next release" `Quick test_next_release;
    Alcotest.test_case "time accounting" `Quick test_time_accounting;
    Alcotest.test_case "partial bottom handler" `Quick
      test_bottom_handler_partial_then_complete;
    Alcotest.test_case "over-attribution rejected" `Quick
      test_over_attribution_rejected;
    Alcotest.test_case "monotone time" `Quick test_advance_monotonicity;
    Alcotest.test_case "task spec validation" `Quick test_task_spec_validation;
  ]
