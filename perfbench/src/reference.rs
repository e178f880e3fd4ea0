//! Schedule fingerprints of the pinned trace-seed-7 cells, copied from
//! the repository's `BENCH_5.json` (`cells[].label`, `cells[].fingerprint`).
//! A fingerprint hashes every job's start time, so a match means the
//! simulator made exactly the decisions it made when that file was
//! written.

/// `(RunConfig::label() plus scenario suffix, fingerprint)` per cell.
pub const BENCH5_SEED7: &[(&str, u64)] = &[
    ("CTC NoBF/FCFS rho=0.9 est=exact", 12278829548848185783),
    ("CTC NoBF/SJF rho=0.9 est=exact", 9914647139924128936),
    ("CTC NoBF/XF rho=0.9 est=exact", 7142758790286315190),
    ("CTC Cons/FCFS rho=0.9 est=exact", 14052240885932789395),
    ("CTC Cons/SJF rho=0.9 est=exact", 14052240885932789395),
    ("CTC Cons/XF rho=0.9 est=exact", 14052240885932789395),
    ("CTC EASY/FCFS rho=0.9 est=exact", 15867597751461677735),
    ("CTC EASY/SJF rho=0.9 est=exact", 130867352634302711),
    ("CTC EASY/XF rho=0.9 est=exact", 363973432273884593),
    ("CTC Depth(4)/FCFS rho=0.9 est=exact", 4197224367418126681),
    ("CTC Depth(4)/SJF rho=0.9 est=exact", 11350680233271496960),
    ("CTC Depth(4)/XF rho=0.9 est=exact", 15426140127363646717),
    ("CTC Sel(2)/FCFS rho=0.9 est=exact", 4215999689922104291),
    ("CTC Sel(2)/SJF rho=0.9 est=exact", 2090594771341681751),
    ("CTC Sel(2)/XF rho=0.9 est=exact", 11357882254144727138),
    (
        "CTC Slack(0.5)/FCFS rho=0.9 est=exact",
        14084626517564281773,
    ),
    ("CTC Slack(0.5)/SJF rho=0.9 est=exact", 4768650206796713936),
    ("CTC Slack(0.5)/XF rho=0.9 est=exact", 7443300700751729979),
    (
        "CTC Preempt(5)/FCFS rho=0.9 est=exact",
        13628720695676075275,
    ),
    ("CTC Preempt(5)/SJF rho=0.9 est=exact", 2772036513700962817),
    ("CTC Preempt(5)/XF rho=0.9 est=exact", 7391855500956269501),
    ("SDSC NoBF/FCFS rho=0.9 est=exact", 1961140912459129084),
    ("SDSC NoBF/SJF rho=0.9 est=exact", 6581816270163240279),
    ("SDSC NoBF/XF rho=0.9 est=exact", 3088257594086318876),
    ("SDSC Cons/FCFS rho=0.9 est=exact", 6670229593355158503),
    ("SDSC Cons/SJF rho=0.9 est=exact", 6670229593355158503),
    ("SDSC Cons/XF rho=0.9 est=exact", 6670229593355158503),
    ("SDSC EASY/FCFS rho=0.9 est=exact", 13032693538048135571),
    ("SDSC EASY/SJF rho=0.9 est=exact", 180355623347332372),
    ("SDSC EASY/XF rho=0.9 est=exact", 4556381431071789078),
    ("SDSC Depth(4)/FCFS rho=0.9 est=exact", 7098858969723782236),
    ("SDSC Depth(4)/SJF rho=0.9 est=exact", 7818361385741188160),
    ("SDSC Depth(4)/XF rho=0.9 est=exact", 2327395347212454336),
    ("SDSC Sel(2)/FCFS rho=0.9 est=exact", 17102026726229406371),
    ("SDSC Sel(2)/SJF rho=0.9 est=exact", 3776465052495676874),
    ("SDSC Sel(2)/XF rho=0.9 est=exact", 11467055984826913698),
    (
        "SDSC Slack(0.5)/FCFS rho=0.9 est=exact",
        14677561523342867427,
    ),
    (
        "SDSC Slack(0.5)/SJF rho=0.9 est=exact",
        15701727561581373415,
    ),
    ("SDSC Slack(0.5)/XF rho=0.9 est=exact", 1712347303400755094),
    (
        "SDSC Preempt(5)/FCFS rho=0.9 est=exact",
        15976219143642613977,
    ),
    (
        "SDSC Preempt(5)/SJF rho=0.9 est=exact",
        15875631372973736642,
    ),
    ("SDSC Preempt(5)/XF rho=0.9 est=exact", 9511439969183406892),
    ("CTC Cons/FCFS rho=2.2 est=user", 2023957090913221116),
    ("CTC Cons/SJF rho=2.2 est=user", 16967418352749526337),
    ("CTC Cons/XF rho=2.2 est=user", 10677399149188182293),
    ("CTC EASY/XF rho=2.2 est=user", 6717793141158073298),
];
