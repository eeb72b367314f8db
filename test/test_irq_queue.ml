module Irq_queue = Rthv_rtos.Irq_queue

let item ~irq ~work = Irq_queue.make_item ~irq ~line:0 ~arrival:0 ~work

let test_fifo_order () =
  let q = Irq_queue.create () in
  List.iter (fun i -> Irq_queue.push q (item ~irq:i ~work:10)) [ 1; 2; 3 ];
  let order = List.map (fun i -> i.Irq_queue.irq) (Irq_queue.to_list q) in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] order

let test_peek_head () =
  let q = Irq_queue.create () in
  Alcotest.(check bool) "empty" true (Irq_queue.is_empty q);
  Irq_queue.push q (item ~irq:7 ~work:10);
  (match Irq_queue.peek q with
  | Some i -> Alcotest.(check int) "head" 7 i.Irq_queue.irq
  | None -> Alcotest.fail "expected head");
  Alcotest.(check int) "peek does not pop" 1 (Irq_queue.length q)

let test_drop_requires_completion () =
  let q = Irq_queue.create () in
  let i = item ~irq:1 ~work:10 in
  Irq_queue.push q i;
  Alcotest.check_raises "unfinished head cannot be dropped"
    (Invalid_argument "Irq_queue.drop_head: head still has remaining work")
    (fun () -> ignore (Irq_queue.drop_head q : Irq_queue.item));
  i.Irq_queue.remaining <- 0;
  let dropped = Irq_queue.drop_head q in
  Alcotest.(check int) "dropped the completed head" 1 dropped.Irq_queue.irq;
  Alcotest.check_raises "empty drop rejected"
    (Invalid_argument "Irq_queue.drop_head: empty queue") (fun () ->
      ignore (Irq_queue.drop_head q : Irq_queue.item))

let test_pending_work () =
  let q = Irq_queue.create () in
  Irq_queue.push q (item ~irq:1 ~work:10);
  let second = item ~irq:2 ~work:30 in
  Irq_queue.push q second;
  Testutil.check_cycles "sum of remaining" 40 (Irq_queue.pending_work q);
  second.Irq_queue.remaining <- 5;
  Testutil.check_cycles "partial execution tracked" 15 (Irq_queue.pending_work q)

let test_high_water () =
  let q = Irq_queue.create () in
  for i = 1 to 5 do
    Irq_queue.push q (item ~irq:i ~work:1)
  done;
  let head = Option.get (Irq_queue.peek q) in
  head.Irq_queue.remaining <- 0;
  ignore (Irq_queue.drop_head q : Irq_queue.item);
  Alcotest.(check int) "high-water survives pops" 5
    (Irq_queue.max_observed_length q)

let test_item_validation () =
  Alcotest.check_raises "work must be positive"
    (Invalid_argument "Irq_queue.make_item: work must be positive") (fun () ->
      ignore (item ~irq:1 ~work:0 : Irq_queue.item))

let test_reset_item () =
  let q = Irq_queue.create () in
  let i = item ~irq:1 ~work:10 in
  Irq_queue.push q i;
  i.Irq_queue.remaining <- 0;
  ignore (Irq_queue.drop_head q : Irq_queue.item);
  Irq_queue.reset_item i ~irq:9 ~line:3 ~arrival:500 ~work:20;
  let fresh = Irq_queue.make_item ~irq:9 ~line:3 ~arrival:500 ~work:20 in
  Alcotest.(check bool) "same fields as a fresh item" true (i = fresh);
  Alcotest.check_raises "work must be positive"
    (Invalid_argument "Irq_queue.reset_item: work must be positive")
    (fun () -> Irq_queue.reset_item i ~irq:1 ~line:0 ~arrival:0 ~work:0)

let suite =
  [
    Alcotest.test_case "FIFO order" `Quick test_fifo_order;
    Alcotest.test_case "peek" `Quick test_peek_head;
    Alcotest.test_case "drop requires completion" `Quick
      test_drop_requires_completion;
    Alcotest.test_case "pending work" `Quick test_pending_work;
    Alcotest.test_case "high-water mark" `Quick test_high_water;
    Alcotest.test_case "item validation" `Quick test_item_validation;
    Alcotest.test_case "reset item" `Quick test_reset_item;
  ]
