(* Shared assertion helpers for the test suites. *)

let check_close ?(rtol = 1e-9) ?(atol = 1e-12) msg expected actual =
  let bound = atol +. (rtol *. Float.max (Float.abs expected) (Float.abs actual)) in
  if Float.abs (expected -. actual) > bound then
    Alcotest.failf "%s: expected %.12g, got %.12g (|diff| = %.3g > %.3g)" msg
      expected actual
      (Float.abs (expected -. actual))
      bound

let check_array_close ?(rtol = 1e-9) ?(atol = 1e-12) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length mismatch (%d vs %d)" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e -> check_close ~rtol ~atol (Printf.sprintf "%s[%d]" msg i) e actual.(i))
    expected

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Invalid_argument, got %s" msg (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, no exception" msg

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* Register a QCheck property as an alcotest case with a deterministic
   seed derived from the name, so failures reproduce. *)
let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A pad-fed chain plus a conductive island with no path to ground or
   a pad, loaded by a current source: its block of the conductance
   matrix is singular and the load makes it inconsistent, so the DC
   solve cannot converge. *)
let island_deck =
  "* grid with a floating, loaded island\n\
   V1 n1_0_0 0 1.0\n\
   R1 n1_0_0 n1_1000_0 0.5\n\
   R2 n1_1000_0 n1_2000_0 0.5\n\
   I1 n1_2000_0 0 0.001\n\
   R3 n1_5000_0 n1_6000_0 0.5\n\
   R4 n1_6000_0 n1_7000_0 0.5\n\
   I2 n1_7000_0 0 0.002\n\
   .end\n"
