(* Allocation assertion helpers for the flat-evaluator guarantee and the
   Monte-Carlo trial budget.

   Both measure the [Gc.minor_words] delta across many calls of a thunk:
   [assert_no_alloc] fails unless it is exactly zero, and
   [assert_alloc_at_most ~words] fails when the mean per call exceeds
   [words]. The budget is per *call*, so the thunk must not capture
   freshly allocated state; warm-up calls first let one-time lazy
   initialization (closure specialization, cache fills) happen outside
   the measured window.

   The measurement is meaningful only on the native compiler —
   bytecode boxes floats at every step — so under [Other]/[Bytecode]
   backends the check degrades to "the thunk runs without raising". *)

let is_native = Sys.backend_type = Sys.Native

let minor_words_per_call ~runs ~warmup (f : unit -> unit) =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let assert_no_alloc ?(runs = 50_000) ?(warmup = 100) name f =
  if not is_native then f ()
  else begin
    let per_call = minor_words_per_call ~runs ~warmup f in
    if per_call <> 0. then
      Alcotest.failf "%s: allocated %.0f minor words over %d calls (%.2f/call)"
        name (per_call *. float_of_int runs) runs per_call
  end

let assert_alloc_at_most ?(runs = 50_000) ?(warmup = 100) ~words name f =
  if not is_native then f ()
  else begin
    let per_call = minor_words_per_call ~runs ~warmup f in
    if per_call > words then
      Alcotest.failf "%s: %.2f minor words per call, budget %.0f" name
        per_call words
  end
