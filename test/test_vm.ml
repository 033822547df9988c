(* Tests for the virtual-memory substrate: physical frames, in-memory
   files and the address space (including the shared-mapping aliasing
   that consolidated unique page allocation relies on). *)

module Phys_mem = Kard_vm.Phys_mem
module Memfd = Kard_vm.Memfd
module Address_space = Kard_vm.Address_space
module Page = Kard_mpk.Page

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Phys_mem} *)

let test_phys_alloc_free () =
  let phys = Phys_mem.create () in
  let f1 = Phys_mem.alloc_frame phys in
  let f2 = Phys_mem.alloc_frame phys in
  check "distinct frames" true (Phys_mem.frame_to_int f1 <> Phys_mem.frame_to_int f2);
  check_int "two resident" 2 (Phys_mem.resident_frames phys);
  Phys_mem.free_frame phys f1;
  check_int "one resident" 1 (Phys_mem.resident_frames phys);
  check_int "peak stays" (2 * Page.size) (Phys_mem.peak_resident_bytes phys);
  check_int "total allocated" 2 (Phys_mem.total_allocated_frames phys)

let test_phys_double_free () =
  let phys = Phys_mem.create () in
  let f = Phys_mem.alloc_frame phys in
  Phys_mem.free_frame phys f;
  check "double free rejected" true
    (try
       Phys_mem.free_frame phys f;
       false
     with Invalid_argument _ -> true)

(* Tables start small; a run past their first sizing must keep every
   frame and mapping, and frees still check residency. *)
let test_growth () =
  let phys = Phys_mem.create () in
  let frames = List.init 100 (fun _ -> Phys_mem.alloc_frame phys) in
  check_int "100 resident" 100 (Phys_mem.resident_frames phys);
  List.iter (Phys_mem.free_frame phys) frames;
  check_int "none resident" 0 (Phys_mem.resident_frames phys);
  check "double free after growth rejected" true
    (try
       Phys_mem.free_frame phys (List.nth frames 50);
       false
     with Invalid_argument _ -> true);
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:1100 in
  check_int "1100 mapped" 1100 (Address_space.mapped_pages aspace);
  check_int "three page-table groups" 3 (Address_space.page_table_pages aspace);
  Address_space.write_u8 aspace (base + (1099 * Page.size)) 7;
  check_int "last page backed" 7 (Address_space.read_u8 aspace (base + (1099 * Page.size)));
  Address_space.munmap aspace ~base ~pages:1100;
  check_int "unmapped" 0 (Address_space.mapped_pages aspace);
  check_int "frames released" 0 (Phys_mem.resident_frames phys)

let test_phys_lazy_bytes () =
  let phys = Phys_mem.create () in
  let f = Phys_mem.alloc_frame phys in
  let b = Phys_mem.bytes_of_frame phys f in
  check_int "page-sized backing" Page.size (Bytes.length b);
  Bytes.set b 0 'x';
  check "same backing on re-fetch" true (Bytes.get (Phys_mem.bytes_of_frame phys f) 0 = 'x')

(* {1 Memfd} *)

let test_memfd_ftruncate () =
  let phys = Phys_mem.create () in
  let fd = Memfd.create phys ~name:"test" in
  check_int "empty" 0 (Memfd.size fd);
  Memfd.ftruncate fd 5000;
  check_int "rounded to pages" (2 * Page.size) (Memfd.size fd);
  check_int "frames allocated" 2 (Phys_mem.resident_frames phys);
  Memfd.ftruncate fd 4096;
  check_int "shrunk" Page.size (Memfd.size fd);
  check_int "frame freed" 1 (Phys_mem.resident_frames phys)

let test_memfd_bounds () =
  let phys = Phys_mem.create () in
  let fd = Memfd.create phys ~name:"test" in
  Memfd.ftruncate fd 4096;
  check "out-of-range page rejected" true
    (try
       ignore (Memfd.frame_of_page fd 1);
       false
     with Invalid_argument _ -> true)

(* {1 Address_space} *)

let test_aspace_anon () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:2 in
  check "mapped" true (Address_space.is_mapped aspace base);
  check "second page mapped" true (Address_space.is_mapped aspace (base + Page.size));
  check "address zero unmapped" false (Address_space.is_mapped aspace 0);
  Address_space.write_u8 aspace base 0xab;
  check_int "read back" 0xab (Address_space.read_u8 aspace base);
  Address_space.munmap aspace ~base ~pages:2;
  check "unmapped" false (Address_space.is_mapped aspace base);
  check_int "frames freed" 0 (Phys_mem.resident_frames phys)

(* The heart of consolidation: two virtual pages aliasing one file
   page really share data. *)
let test_aspace_file_aliasing () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let fd = Memfd.create phys ~name:"heap" in
  Memfd.ftruncate fd Page.size;
  let v1 = Address_space.mmap_file aspace fd ~file_page:0 ~pages:1 in
  let v2 = Address_space.mmap_file aspace fd ~file_page:0 ~pages:1 in
  check "distinct virtual pages" true (v1 <> v2);
  Address_space.write_u8 aspace (v1 + 100) 42;
  check_int "aliased read" 42 (Address_space.read_u8 aspace (v2 + 100));
  check_int "one physical frame" 1 (Phys_mem.resident_frames phys);
  check_int "two mapped pages" 2 (Address_space.mapped_pages aspace)

let test_aspace_segfault () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  check "segfault on unmapped" true
    (try
       ignore (Address_space.read_u8 aspace 0x123456);
       false
     with Address_space.Segfault _ -> true)

let test_aspace_i64 () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:2 in
  (* Straddles the page boundary on purpose. *)
  let addr = base + Page.size - 4 in
  Address_space.write_i64 aspace addr 0x1122334455667788L;
  check "i64 roundtrip across pages" true
    (Int64.equal (Address_space.read_i64 aspace addr) 0x1122334455667788L)

let test_aspace_reserve () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.reserve aspace ~pages:4 in
  check "reserved not mapped" false (Address_space.is_mapped aspace base);
  check_int "no frames" 0 (Phys_mem.resident_frames phys);
  (* Reservations must not collide with later mappings. *)
  let other = Address_space.mmap_anon aspace ~pages:1 in
  check "no overlap" true (other >= base + (4 * Page.size) || other < base)

let test_aspace_accounting () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:3 in
  check_int "pt pages" 1 (Address_space.page_table_pages aspace);
  check "peak mapped at least 3" true (Address_space.peak_mapped_pages aspace >= 3);
  Address_space.munmap aspace ~base ~pages:3;
  check_int "pt pages after unmap" 0 (Address_space.page_table_pages aspace);
  check "peak retained" true (Address_space.peak_mapped_pages aspace >= 3)

let () =
  Alcotest.run "kard_vm"
    [ ( "phys_mem",
        [ Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "double free" `Quick test_phys_double_free;
          Alcotest.test_case "lazy bytes" `Quick test_phys_lazy_bytes;
          Alcotest.test_case "growth past first sizing" `Quick test_growth ] );
      ( "memfd",
        [ Alcotest.test_case "ftruncate" `Quick test_memfd_ftruncate;
          Alcotest.test_case "bounds" `Quick test_memfd_bounds ] );
      ( "address_space",
        [ Alcotest.test_case "anonymous mapping" `Quick test_aspace_anon;
          Alcotest.test_case "file aliasing" `Quick test_aspace_file_aliasing;
          Alcotest.test_case "segfault" `Quick test_aspace_segfault;
          Alcotest.test_case "i64 across pages" `Quick test_aspace_i64;
          Alcotest.test_case "reserve" `Quick test_aspace_reserve;
          Alcotest.test_case "accounting" `Quick test_aspace_accounting ] ) ]
