(* Outputs pinned for the default seed (Workloads.default_seed) at full
   scale. A change to the electrical solve, extraction or Monte-Carlo
   engine that moves any of these shows up as failed ops. The benchmark
   prints the value it sees for any output pinned here as [None]
   ("unpinned ...", on standard error), which is how these were taken. *)

let signoff_pg2_counts = Some "TP=55917 TN=5909 FP=46030 FN=5273"

let variation_pg1_digest = Some "1d22432c7dc62ba3b88ce2e3f87c001d"

(* Per ECO variant: verdict counts and diff digest. *)
let eco_diff = function
  | 0 -> Some "TP=43779 TN=0 FP=6915 FN=0 diff 26c3a7eb9cf598a884938c8842ec96a9"
  | 1 -> Some "TP=43785 TN=0 FP=6909 FN=0 diff 89720e11f69054306f70ad0140ec8be6"
  | 2 -> Some "TP=43785 TN=0 FP=6909 FN=0 diff f5891ba599c3a85f8e7aa06658b3974a"
  | 3 -> Some "TP=43796 TN=0 FP=6898 FN=0 diff 38f3e236226a6a08ae6c3c38750aee15"
  | _ -> None
