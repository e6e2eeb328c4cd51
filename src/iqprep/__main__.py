from iqprep.cli import main

raise SystemExit(main())
